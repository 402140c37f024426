package sim

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os/exec"
	"regexp"
	"strconv"
	"testing"
)

// TestHotPathInlined pins the inlining a fast-tier memory operation's
// cost rests on (DESIGN.md §11.2): a kernel's Arr.Load or Arr.Store
// (or their signed views) inlines into the kernel, and windowStep
// inlines into Load32 and Store32, so the operation costs two indirect
// calls (isa.Machine, then the design's AccessEB) and nothing else
// while it stays in the window. Most of them sit just under the
// compiler's inlining budget, so an edit that grows one would lose the
// saving without any other test noticing. The block-cost memo lookup,
// block, must inline too: both policies' Compute paths read every
// chunk's costs through it.
func TestHotPathInlined(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the compiler")
	}
	out, err := exec.Command("go", "build", "-gcflags=-m", "wlcache/internal/workload", "wlcache/internal/sim").CombinedOutput()
	if err != nil {
		t.Fatalf("go build -gcflags=-m: %v\n%s", err, out)
	}
	diag := string(out) // positions are relative to this package's directory
	for _, fn := range []string{"Arr.Load", "Arr.Store", "Arr.LoadI", "Arr.StoreI", "(*Simulator).windowStep", "(*Simulator).block"} {
		if !regexp.MustCompile(`(?m): can inline ` + regexp.QuoteMeta(fn) + `$`).MatchString(diag) {
			t.Errorf("compiler no longer reports %s inlinable", fn)
		}
	}
	for _, fn := range []string{"Arr.Load", "Arr.Store"} {
		re := regexp.MustCompile(`(?m)^\S*?(\w+)\.go:\d+:\d+: inlining call to ` + regexp.QuoteMeta(fn) + `$`)
		kernel := false
		for _, m := range re.FindAllStringSubmatch(diag, -1) {
			kernel = kernel || m[1] != "env"
		}
		if !kernel {
			t.Errorf("%s is not inlined into any kernel", fn)
		}
	}

	// Each of Load32 and Store32 must contain an inlined windowStep call.
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "sim.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var sites []int
	for _, m := range regexp.MustCompile(`(?m)^(?:\S*/)?sim\.go:(\d+):\d+: inlining call to \(\*Simulator\)\.windowStep$`).FindAllStringSubmatch(diag, -1) {
		line, _ := strconv.Atoi(m[1])
		sites = append(sites, line)
	}
	for _, name := range []string{"Load32", "Store32"} {
		inlined := false
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Name.Name != name || fd.Recv == nil {
				continue
			}
			from, to := fset.Position(fd.Pos()).Line, fset.Position(fd.End()).Line
			for _, l := range sites {
				inlined = inlined || (l >= from && l <= to)
			}
		}
		if !inlined {
			t.Errorf("windowStep is not inlined into Simulator.%s", name)
		}
	}
}
