package expt

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// expectedPath is bench/'s outcome file, read-only here: its cells are
// the compact form of GoldenCell, as json.Marshal writes them.
const expectedPath = "../../bench/testdata/expected_seed1.json"

// decodeTwin decodes b by reflection alone, as encoding/json would
// decode a GoldenCell without its UnmarshalJSON method.
func decodeTwin(b []byte) (GoldenCell, error) {
	var twin goldenCellJSON
	err := json.Unmarshal(b, &twin)
	return GoldenCell(twin), err
}

// readCell runs the one-pass reader alone over one cell and reports
// whether it accepted the bytes.
func readCell(b []byte) (GoldenCell, bool) {
	r := goldenReader{s: string(b)}
	var c GoldenCell
	r.cell(&c)
	return c, r.end()
}

// The committed golden takes the one-pass path and decodes, cell for
// cell, to what encoding/json makes of the whole file.
func TestLoadGoldenFileMatchesEncodingJSON(t *testing.T) {
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	fast, ok := readGoldenCells(string(data))
	if !ok {
		t.Fatal("the one-pass reader rejected the committed golden")
	}
	var twins []goldenCellJSON
	if err := json.Unmarshal(data, &twins); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadGoldenFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(fast) != len(twins) || len(loaded) != len(twins) {
		t.Fatalf("%d cells read in one pass, %d loaded, %d by encoding/json", len(fast), len(loaded), len(twins))
	}
	for i, twin := range twins {
		if want := GoldenCell(twin); !reflect.DeepEqual(fast[i], want) || !reflect.DeepEqual(loaded[i], want) {
			t.Fatalf("cell %d (%s) differs from encoding/json's decode", i, want.ID())
		}
	}
}

// Every compact cell of bench/'s outcome file takes the one-pass path
// and decodes as encoding/json decodes it.
func TestGoldenCellReaderOnExpectedFile(t *testing.T) {
	data, err := os.ReadFile(expectedPath)
	if err != nil {
		t.Fatal(err)
	}
	var f struct {
		Matrices map[string][]json.RawMessage `json:"matrices"`
	}
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatal(err)
	}
	n := 0
	for m, cells := range f.Matrices {
		for i, raw := range cells {
			want, err := decodeTwin(raw)
			if err != nil {
				t.Fatal(err)
			}
			fast, ok := readCell(raw)
			if !ok {
				t.Fatalf("%s cell %d: the one-pass reader rejected\n%s", m, i, raw)
			}
			var got GoldenCell
			if err := json.Unmarshal(raw, &got); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(fast, want) || !reflect.DeepEqual(got, want) {
				t.Fatalf("%s cell %d (%s) differs from encoding/json's decode", m, i, want.ID())
			}
			n++
		}
	}
	if n == 0 {
		t.Fatalf("%s holds no cells", expectedPath)
	}
}

// A file the reader cannot take fails with encoding/json's words, the
// type name a GoldenCell decode has always reported included.
func TestLoadGoldenFileErrors(t *testing.T) {
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "golden.json")
	for _, tc := range []struct {
		name, file, want string
	}{
		{"truncated", string(data[:len(data)/2]), "unexpected end of JSON input"},
		{"number field", strings.Replace(string(data), `"Checksum": "3188836267"`, `"Checksum": 3188836267`, 1),
			"json: cannot unmarshal number into Go struct field GoldenCell.fields of type string"},
		{"number kind", strings.Replace(string(data), `"kind": "nocache"`, `"kind": 7`, 1),
			"json: cannot unmarshal number into Go struct field GoldenCell.kind of type string"},
		{"string cell", `["nocache"]`, "json: cannot unmarshal string into Go value of type expt.GoldenCell"},
	} {
		if tc.file == string(data) {
			t.Fatalf("%s: the edit did not apply", tc.name)
		}
		if err := os.WriteFile(path, []byte(tc.file), 0o644); err != nil {
			t.Fatal(err)
		}
		cells, err := LoadGoldenFile(path)
		if want := "golden " + path + ": " + tc.want; err == nil || err.Error() != want {
			t.Errorf("%s: err = %v\nwant %s", tc.name, err, want)
		}
		if cells != nil {
			t.Errorf("%s: %d cells returned with the error", tc.name, len(cells))
		}
	}
}

// Surprises the reader leaves to encoding/json still decode as
// encoding/json decodes them, inside a file too.
func TestLoadGoldenFileFallsBack(t *testing.T) {
	file := `[{"kind":"a","workload":"b","trace":"c","err":"x \"y\""},` +
		`{"Kind":"a","fields":{"K":"\u00e9"}},{"kind":"a","fields":null},{}]`
	path := filepath.Join(t.TempDir(), "golden.json")
	if err := os.WriteFile(path, []byte(file), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := readGoldenCells(file); ok {
		t.Fatal("the one-pass reader took escapes, an upper-case key and null")
	}
	got, err := LoadGoldenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := []GoldenCell{
		{Kind: "a", Workload: "b", Trace: "c", Err: `x "y"`},
		{Kind: "a", Fields: map[string]string{"K": "é"}},
		{Kind: "a"},
		{},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %#v\nwant %#v", got, want)
	}
}

// FuzzReadGoldenCell checks the one-pass reader against encoding/json:
// whenever the reader accepts a cell, or a file of two copies of it,
// encoding/json accepts it too and decodes the same cells, and a
// GoldenCell decodes, or fails, exactly as its method-less twin does,
// error text included.
func FuzzReadGoldenCell(f *testing.F) {
	golden, err := os.ReadFile(goldenPath)
	if err != nil {
		f.Fatal(err)
	}
	var cells []json.RawMessage
	if err := json.Unmarshal(golden, &cells); err != nil {
		f.Fatal(err)
	}
	// The golden's first cell with its indentation: the bytes from its
	// opening brace to the next cell's.
	start := strings.Index(string(golden), "{")
	end := start + strings.Index(string(golden[start:]), "},\n\t{") + 1
	f.Add(golden[start:end])
	f.Add([]byte(cells[len(cells)-1]))
	expected, err := os.ReadFile(expectedPath)
	if err != nil {
		f.Fatal(err)
	}
	start = strings.Index(string(expected), `{"kind"`)
	end = start + strings.Index(string(expected[start:]), "}}") + 2
	f.Add(expected[start:end])
	for _, s := range []string{
		`{"kind":"eager-wb","workload":"sha","trace":"tr1","err":"sim: \"quoted\""}`,
		`{"Kind":"nocache","workload":"sha","trace":"none"}`,
		`{"kind":"nocache","extra":"x","trace":"none"}`,
		`{"kind":"nocache","kind":"wl","trace":"none"}`,
		`{"kind":"nocache","fields":{"A":"1","A":"2"}}`,
		`{"kind":"nocache","fields":null}`,
		`{"kind":"nocache","fields":{}}`,
		`{"kind":"nocache","fields":{"Design":"NVSRAM(idéal)"}}`,
		`{"kind":"nocache","fields":{"Checksum":12}}`,
		` { "trace" : "tr3" , "workload":"sha" } `,
		`null`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		want, werr := decodeTwin(b)
		if fast, ok := readCell(b); ok {
			if werr != nil {
				t.Fatalf("the reader accepted what encoding/json refuses (%v):\n%q", werr, b)
			}
			if !reflect.DeepEqual(fast, want) {
				t.Fatalf("the reader and encoding/json disagree on %q:\nreader:        %#v\nencoding/json: %#v", b, fast, want)
			}
		}
		var got GoldenCell
		gerr := json.Unmarshal(b, &got)
		switch {
		case werr != nil:
			if w := strings.ReplaceAll(werr.Error(), "goldenCellJSON", "GoldenCell"); gerr == nil || gerr.Error() != w {
				t.Fatalf("GoldenCell decode of %q: err %v, want %s", b, gerr, w)
			}
		case gerr != nil:
			t.Fatalf("GoldenCell decode of %q failed where its twin's did not: %v", b, gerr)
		case !reflect.DeepEqual(got, want):
			t.Fatalf("GoldenCell and its twin decode %q differently:\ngot  %#v\nwant %#v", b, got, want)
		}
		// The same bytes twice in a file: the array around the cells.
		file := "[\n" + string(b) + ",\n" + string(b) + "\n]\n"
		if fast, ok := readGoldenCells(file); ok {
			var twins []goldenCellJSON
			if err := json.Unmarshal([]byte(file), &twins); err != nil {
				t.Fatalf("the reader accepted a file encoding/json refuses (%v):\n%q", err, file)
			}
			if len(fast) != len(twins) {
				t.Fatalf("the reader read %d cells from %q, encoding/json %d", len(fast), file, len(twins))
			}
			for i := range twins {
				if !reflect.DeepEqual(fast[i], GoldenCell(twins[i])) {
					t.Fatalf("the reader and encoding/json disagree on cell %d of %q", i, file)
				}
			}
		}
	})
}
