package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime/pprof"
	"slices"
	"strings"
)

// layerNames are the layers CPU time is folded into: the simulator's
// internal packages, the Go runtime, the rest of the standard library,
// and this benchmark's own wrappers and checks. Anything else is
// "other".
var layerNames = []string{"sim", "energy", "power", "cache", "mem", "core", "designs", "workload",
	"runner", "serve", "obs", "stdlib", "runtime", "bench"}

// layerOf maps a profiled function name to its layer by package path.
func layerOf(fn string) string {
	if fn == "" {
		return "other"
	}
	if strings.HasPrefix(fn, "type:") {
		return "runtime" // compiler-generated hash and equality functions
	}
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // generic type arguments may contain package paths
	}
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return "runtime" // assembly helpers such as gcWriteBarrier carry no package
	}
	pkg := fn[:slash+1+dot]
	switch {
	case pkg == "main" || pkg == "wlcache/bench": // the binary, or its test binary
		return "bench"
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	case strings.HasPrefix(pkg, "wlcache/internal/"):
		if name := strings.TrimPrefix(pkg, "wlcache/internal/"); slices.Contains(layerNames, name) {
			return name
		}
		return "other"
	case strings.HasPrefix(pkg, "wlcache"):
		return "other"
	}
	return "stdlib"
}

// profiler captures one CPU profile over the timed part of a traced
// run; traced passes mark their samples with tracedLabel.
type profiler struct{ buf bytes.Buffer }

func startProfile() (*profiler, error) {
	p := &profiler{}
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	return p, nil
}

// stop ends the profile and returns it, gzipped profile.proto.
func (p *profiler) stop() []byte {
	pprof.StopCPUProfile()
	return p.buf.Bytes()
}

// foldLayers sums the CPU time of the traced samples of a CPU profile
// by the layer of each sample's leaf function: the flat time of
// `go tool pprof -top -tagfocus bench=traced`, grouped by package.
func foldLayers(gz []byte) (ns map[string]int64, samples int, err error) {
	p, err := parseProfile(gz)
	if err != nil {
		return nil, 0, err
	}
	str := func(i int64) string {
		if i < 0 || int(i) >= len(p.strings) {
			return ""
		}
		return p.strings[i]
	}
	ns = make(map[string]int64)
	for _, s := range p.samples {
		if len(s.locs) == 0 || len(s.values) == 0 || !s.hasLabel(str, "bench", "traced") {
			continue
		}
		fn := str(p.funcName[p.locFunc[s.locs[0]]])
		ns[layerOf(fn)] += s.values[len(s.values)-1] // cpu nanoseconds
		samples++
	}
	return ns, samples, nil
}

// cpuProfile holds the parts of profile.proto layer folding needs.
type cpuProfile struct {
	samples  []pbSample
	locFunc  map[uint64]uint64 // location id -> function id of its innermost line
	funcName map[uint64]int64  // function id -> name string index
	strings  []string
}

type pbSample struct {
	locs   []uint64
	values []int64
	labels [][2]int64 // key and string value indices
}

func (s pbSample) hasLabel(str func(int64) string, key, val string) bool {
	for _, l := range s.labels {
		if str(l[0]) == key && str(l[1]) == val {
			return true
		}
	}
	return false
}

// parseProfile decodes a gzipped profile.proto: samples (field 2),
// locations (4), functions (5) and the string table (6).
func parseProfile(gz []byte) (*cpuProfile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	p := &cpuProfile{locFunc: map[uint64]uint64{}, funcName: map[uint64]int64{}}
	err = eachField(raw, func(f, wire int, v uint64, data []byte) error {
		switch f {
		case 2:
			var s pbSample
			err := eachField(data, func(f, wire int, v uint64, data []byte) error {
				var err error
				switch f {
				case 1:
					s.locs, err = appendUints(s.locs, wire, v, data)
				case 2:
					var vals []uint64
					vals, err = appendUints(nil, wire, v, data)
					for _, x := range vals {
						s.values = append(s.values, int64(x))
					}
				case 3:
					var l [2]int64
					err = eachField(data, func(f, _ int, v uint64, _ []byte) error {
						if f == 1 || f == 2 {
							l[f-1] = int64(v)
						}
						return nil
					})
					s.labels = append(s.labels, l)
				}
				return err
			})
			p.samples = append(p.samples, s)
			return err
		case 4:
			var id, fn uint64
			var sawLine bool
			err := eachField(data, func(f, _ int, v uint64, data []byte) error {
				switch {
				case f == 1:
					id = v
				case f == 4 && !sawLine: // the first line is the innermost inlined function
					sawLine = true
					return eachField(data, func(f, _ int, v uint64, _ []byte) error {
						if f == 1 {
							fn = v
						}
						return nil
					})
				}
				return nil
			})
			p.locFunc[id] = fn
			return err
		case 5:
			var id uint64
			var name int64
			err := eachField(data, func(f, _ int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			p.funcName[id] = name
			return err
		case 6:
			p.strings = append(p.strings, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	return p, nil
}

var errTruncated = errors.New("truncated protobuf")

// eachField calls fn for every field of a protobuf message with its
// number, wire type, and value (varint and fixed fields) or payload
// (length-delimited fields).
func eachField(b []byte, fn func(field, wire int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		var v uint64
		var data []byte
		switch wire := key & 7; wire {
		case 0:
			if v, n = binary.Uvarint(b); n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case 1, 5:
			size := 8
			if wire == 5 {
				size = 4
			}
			if len(b) < size {
				return errTruncated
			}
			b = b[size:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		default:
			return fmt.Errorf("unsupported protobuf wire type %d", wire)
		}
		if err := fn(int(key>>3), int(key&7), v, data); err != nil {
			return err
		}
	}
	return nil
}

// appendUints decodes one occurrence of a repeated integer field,
// packed (wire type 2) or not.
func appendUints(dst []uint64, wire int, v uint64, data []byte) ([]uint64, error) {
	if wire != 2 {
		return append(dst, v), nil
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return dst, errTruncated
		}
		dst, data = append(dst, x), data[n:]
	}
	return dst, nil
}
