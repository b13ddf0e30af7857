package snlog

import (
	"os"
	"os/exec"
	"testing"
)

// TestBenchModuleVets type-checks the nested benchmark module. bench/ has
// its own go.mod (replace repro => ../), so `go build ./... && go test
// ./...` at the root never compiles it, yet it links against exported
// identifiers of internal/window, internal/datalog/eval and the rest: a
// change that breaks one of them must fail here, not at the next
// benchmark run. Nothing is fetched — the module's only requirement is
// the replace — and GOPROXY=off keeps it that way.
func TestBenchModuleVets(t *testing.T) {
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go command on PATH")
	}
	cmd := exec.Command(goBin, "vet", "./...")
	cmd.Dir = "bench"
	cmd.Env = append(os.Environ(), "GOPROXY=off")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go vet ./... in bench/: %v\n%s", err, out)
	}
}
