package main

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/stdout.golden")

// TestStdoutGolden runs the example and compares what it prints with
// testdata/stdout.golden; go test -update rewrites the golden. TMPDIR
// points at a fresh directory whose path reads $TMPDIR in the output.
func TestStdoutGolden(t *testing.T) {
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	read := make(chan []byte)
	go func() {
		b, _ := io.ReadAll(r)
		read <- b
	}()
	stdout := os.Stdout
	os.Stdout = w
	func() {
		defer func() { os.Stdout = stdout }()
		main()
	}()
	w.Close()
	got := bytes.ReplaceAll(<-read, []byte(tmp), []byte("$TMPDIR"))

	golden := filepath.Join("testdata", "stdout.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("stdout differs from %s (go test -update rewrites it)\n--- got\n%s--- want\n%s", golden, got, want)
	}
}
