package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// A file that is not a manifest errors rather
// than printing an empty summary.
func TestSummaryRejectsGarbage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "junk.json")
	if err := os.WriteFile(path, []byte("not a report"), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if _, err := run([]string{"summary", path}, &out); err == nil {
		t.Fatal("garbage file accepted")
	}
}
