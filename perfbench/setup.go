package main

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"time"

	"repro/internal/rt"
)

// setupProbe is the child side of probeSetup: start, build what a
// simulation needs before its first cell (the model tables and an
// 8-CPU machine under an engine), announce readiness and exit.
func setupProbe(workload string) {
	if _, _, err := engineFor(cell{app: "probe", policy: "LFF", seed: 1, spawn: func(*rt.Engine) {}}, nil); err != nil {
		fatalf("setup probe for %s: %v", workload, err)
	}
	fmt.Println("ready")
}

// probeSetup measures process start to ready for a simulation
// workload: it starts a fresh copy of this program in probe mode and
// returns the seconds from exec to its "ready" line.
func probeSetup(o opts) (float64, error) {
	self, err := os.Executable()
	if err != nil {
		return 0, err
	}
	cmd := exec.Command(self, "-setup-probe", o.workload)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return 0, err
	}
	line, rerr := bufio.NewReader(stdout).ReadString('\n')
	d := time.Since(t0)
	werr := cmd.Wait()
	if rerr != nil || line != "ready\n" {
		return 0, fmt.Errorf("setup probe said %q (%v)", line, rerr)
	}
	if werr != nil {
		return 0, fmt.Errorf("setup probe: %w", werr)
	}
	return d.Seconds(), nil
}
