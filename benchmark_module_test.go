package chimera_test

import (
	"os"
	"os/exec"
	"testing"
)

// benchmark/ is a module of its own, so `go build ./...` and `go vet
// ./...` at the root never compile it, yet benchmark/kernels.go calls
// internal packages directly. Building and vetting it from here makes an
// internal API change that breaks it fail tier-1 instead of the next
// benchmark run.
func TestBenchmarkModuleBuilds(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a second module")
	}
	for _, args := range [][]string{
		{"-C", "benchmark", "build", "-o", os.DevNull, "./..."},
		{"-C", "benchmark", "vet", "./..."},
	} {
		cmd := exec.Command("go", args...)
		cmd.Env = append(os.Environ(), "GOWORK=off", "GOFLAGS=")
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("go %v: %v\n%s", args, err, out)
		}
	}
}
