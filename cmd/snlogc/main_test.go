package main

import (
	"io"
	"os"
	"strings"
	"testing"

	"repro/internal/datalog/analysis"
	"repro/internal/datalog/parser"
)

func TestReadSourceFromFile(t *testing.T) {
	src, err := readSource([]string{"testdata/logicj.snl"})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(src, "jp(Y, D1)") {
		t.Errorf("unexpected source: %q", src[:50])
	}
}

func TestReadSourceMissingFile(t *testing.T) {
	if _, err := readSource([]string{"testdata/nope.snl"}); err == nil {
		t.Error("missing file should error")
	}
}

// report must render the XY analysis of the logicJ program without
// panicking and with the expected classification.
func TestReportLogicJ(t *testing.T) {
	src, err := readSource([]string{"testdata/logicj.snl"})
	if err != nil {
		t.Fatal(err)
	}
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	res, err := analysis.Analyze(prog)
	if err != nil {
		t.Fatal(err)
	}
	out := captureStdout(t, func() { report(prog, res) })
	for _, want := range []string{"XY-stratified", "stage argument", "same-stage order"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

func captureStdout(t *testing.T, f func()) string {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	done := make(chan string)
	go func() {
		// Everything up to w.Close: a single Read returns after the first
		// line when it runs between two of report's writes.
		b, _ := io.ReadAll(r)
		done <- string(b)
	}()
	f()
	w.Close()
	os.Stdout = old
	return <-done
}
