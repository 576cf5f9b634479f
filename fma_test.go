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
	"coresetclustering/internal/clusterer",
	"coresetclustering/internal/core",
	"coresetclustering/internal/coreset",
	"coresetclustering/internal/dataset",
	"coresetclustering/internal/gmm",
	"coresetclustering/internal/mapreduce",
	"coresetclustering/internal/metric",
	"coresetclustering/internal/outliers",
	"coresetclustering/internal/sketch",
	"coresetclustering/internal/streaming",
	"coresetclustering/internal/window",
}

var fusedInstruction = regexp.MustCompile(`\tF(N?)M(ADD|SUB)D\t`)

// TestNoFusedMultiplyAddOnArm64 cross-compiles the packages of fusionFree for
// arm64 in one build, with an assembly listing of each, and fails on every
// fused multiply-add in them.
func TestNoFusedMultiplyAddOnArm64(t *testing.T) {
	if testing.Short() {
		t.Skip("cross-compiles for arm64")
	}
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go binary on PATH")
	}
	args := []string{"build"}
	for _, pkg := range fusionFree {
		args = append(args, "-gcflags="+pkg+"=-S")
	}
	cmd := exec.Command(goBin, append(args, fusionFree...)...)
	cmd.Env = append(os.Environ(), "GOARCH=arm64", "CGO_ENABLED=0")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("GOARCH=arm64 go build: %v\n%s", err, out)
	}
	for _, pkg := range fusionFree {
		if !bytes.Contains(out, []byte("# "+pkg+"\n")) {
			t.Fatalf("GOARCH=arm64 go build printed no assembly listing for %s", pkg)
		}
	}
	for _, line := range bytes.Split(out, []byte("\n")) {
		if fusedInstruction.Match(line) {
			t.Errorf("fused multiply-add on arm64: %s", bytes.TrimSpace(line))
		}
	}
}
