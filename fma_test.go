package kcenter_test

import (
	"bytes"
	"os"
	"os/exec"
	"regexp"
	"testing"
)

// fusionFree lists the packages whose arm64 code may hold no fused
// multiply-add. amd64 never fuses, so a fused instruction is a place where an
// arm64 build computes other bits than an amd64 one; an explicit float64(x*y)
// conversion at the site forbids the fusion. ROADMAP item 13 extends the list
// to the rest of the determinism path.
var fusionFree = []string{
	"coresetclustering/internal/outliers",
}

var fusedInstruction = regexp.MustCompile(`\tF(N?)M(ADD|SUB)D\t`)

// TestNoFusedMultiplyAddOnArm64 cross-compiles each package of fusionFree for
// arm64 with its assembly listing and fails on every fused multiply-add in it.
func TestNoFusedMultiplyAddOnArm64(t *testing.T) {
	if testing.Short() {
		t.Skip("cross-compiles for arm64")
	}
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go binary on PATH")
	}
	for _, pkg := range fusionFree {
		cmd := exec.Command(goBin, "build", "-gcflags="+pkg+"=-S", pkg)
		cmd.Env = append(os.Environ(), "GOARCH=arm64", "CGO_ENABLED=0")
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("GOARCH=arm64 go build %s: %v\n%s", pkg, err, out)
		}
		if !bytes.Contains(out, []byte(" STEXT ")) {
			t.Fatalf("GOARCH=arm64 go build %s printed no assembly listing:\n%s", pkg, out)
		}
		for _, line := range bytes.Split(out, []byte("\n")) {
			if fusedInstruction.Match(line) {
				t.Errorf("%s: fused multiply-add on arm64: %s", pkg, bytes.TrimSpace(line))
			}
		}
	}
}
