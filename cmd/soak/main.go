// Command soak is the chaos harness for crash-safe runs: it SIGKILLs a
// checkpointing simulation subprocess at random moments, resumes it
// from its last snapshot, repeats, and asserts that the survivor's
// final state fingerprint is bit-identical to an uninterrupted run's.
//
// The harness re-executes itself as the worker (soak -worker ...), so
// the kill hits a real separate process — the same recovery path a
// power loss or OOM kill exercises — not a goroutine. The worker
// prints one "CKPT <step> <cycle>" line per checkpoint written and a
// final "FINGERPRINT <hex>" line; the parent kills it shortly after a
// seeded-random number of checkpoints (so the kill lands at an
// arbitrary instant past a boundary, not on one), restarts it with
// -resume, and keeps going until a run survives to completion.
//
// Usage:
//
//	soak -app tasks -policy LFF -cpus 4 -scale 0.3 -kills 5
//	soak -app photo -faults all -kills 3 -every 20000
//
// Exit status 0 means every kill/resume cycle converged to the
// uninterrupted run's fingerprint.
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"

	"repro/internal/platform/faulty"
	"repro/internal/rt"
	"repro/internal/runspec"
	"repro/internal/snapshot"
	"repro/internal/xrand"
)

func main() {
	app := flag.String("app", "tasks", "application: tasks, merge, photo or tsp")
	policy := flag.String("policy", "LFF", "scheduling policy")
	cpus := flag.Int("cpus", 4, "processor count (1 = Ultra-1, >1 = E5000)")
	scale := flag.Float64("scale", 0.3, "workload scale")
	seed := flag.Uint64("seed", 11, "simulation seed")
	faults := flag.String("faults", "", "fault spec for the faulty platform (see atsim -faults)")
	every := flag.Uint64("every", 10000, "checkpoint interval in virtual cycles")
	kills := flag.Int("kills", 5, "number of SIGKILL/resume cycles to inflict")
	chaosSeed := flag.Uint64("chaos-seed", 1, "seed for the kill schedule")
	dir := flag.String("dir", "", "working directory for snapshots (default: a temp dir)")
	worker := flag.Bool("worker", false, "internal: run one checkpointing simulation and print CKPT/FINGERPRINT lines")
	resume := flag.Bool("resume", false, "internal: worker resumes from its snapshot if present")
	flag.Parse()

	if *worker {
		if err := runWorker(*dir, *app, *policy, *cpus, *scale, *seed, *faults, *every, *resume); err != nil {
			fmt.Fprintln(os.Stderr, "soak worker:", err)
			os.Exit(1)
		}
		return
	}
	if err := runChaos(*dir, *app, *policy, *cpus, *scale, *seed, *faults, *every, *kills, *chaosSeed); err != nil {
		fmt.Fprintln(os.Stderr, "soak:", err)
		os.Exit(1)
	}
}

// runWorker executes one simulation with checkpointing on, reporting
// each checkpoint on stdout and the final state fingerprint at the
// end.
func runWorker(dir, appName, policy string, cpus int, scale float64, seed uint64, faults string, every uint64, resume bool) error {
	if dir == "" {
		return errors.New("-worker needs -dir")
	}
	faultCfg, err := faulty.ParseSpec(faults)
	if err != nil {
		return err
	}
	spec := runspec.Spec{App: appName, Policy: policy, CPUs: cpus, Scale: scale, Seed: seed, Faults: faultCfg}
	if err := spec.Validate(); err != nil {
		return err
	}
	ckpt := rt.CheckpointConfig{
		Every: every,
		Path:  filepath.Join(dir, "soak.snap"),
		OnCheckpoint: func(st *snapshot.State) error {
			// One line per boundary; the parent's kill schedule counts
			// these. Stdout is unbuffered line-at-a-time on purpose —
			// the parent must see the marker before the kill window.
			fmt.Printf("CKPT %d %d\n", st.Steps, st.Now)
			return nil
		},
	}
	if resume {
		if ckpt.Resume, err = runspec.LoadResume(ckpt.Path); err != nil {
			return err
		}
		if st := ckpt.Resume; st != nil {
			fmt.Printf("RESUME %d %d\n", st.Steps, st.Now)
		}
	}
	_, e, err := spec.Run(context.Background(), rt.Options{Checkpoint: ckpt}, nil)
	if err != nil {
		return err
	}
	fmt.Printf("FINGERPRINT %016x\n", e.CaptureState().Fingerprint())
	return nil
}

// runChaos drives the kill/resume loop and the final differential.
func runChaos(dir, app, policy string, cpus int, scale float64, seed uint64, faults string, every uint64, kills int, chaosSeed uint64) error {
	if dir == "" {
		d, err := os.MkdirTemp("", "soak")
		if err != nil {
			return err
		}
		defer os.RemoveAll(d)
		dir = d
	}
	workerArgs := func(sub string) []string {
		return []string{"-worker", "-dir", sub,
			"-app", app, "-policy", policy,
			"-cpus", fmt.Sprint(cpus), "-scale", fmt.Sprint(scale),
			"-seed", fmt.Sprint(seed), "-faults", faults,
			"-every", fmt.Sprint(every)}
	}

	// Reference: one uninterrupted worker (checkpointing on too, so
	// both final captures carry the same writer metadata).
	refDir := filepath.Join(dir, "straight")
	if err := os.MkdirAll(refDir, 0o755); err != nil {
		return err
	}
	ref, _, err := runOnce(workerArgs(refDir), nil)
	if err != nil {
		return fmt.Errorf("straight run: %w", err)
	}
	if ref == "" {
		return errors.New("straight run printed no fingerprint")
	}
	fmt.Printf("straight run fingerprint %s\n", ref)

	// Chaos loop: kill shortly after a random checkpoint count, then
	// resume; once the kill budget is spent, let the worker finish.
	chaosDir := filepath.Join(dir, "chaos")
	if err := os.MkdirAll(chaosDir, 0o755); err != nil {
		return err
	}
	rng := xrand.New(chaosSeed)
	args := append(workerArgs(chaosDir), "-resume")
	killed := 0
	for attempt := 1; ; attempt++ {
		var killAfter uint64
		if killed < kills {
			killAfter = 1 + rng.Uint64n(4)
		}
		fp, ckpts, err := runOnce(args, killPlan(killAfter))
		switch {
		case err == nil && fp != "":
			if fp != ref {
				return fmt.Errorf("diverged after %d kills: resumed fingerprint %s, straight %s", killed, fp, ref)
			}
			fmt.Printf("survived %d kills over %d attempts; fingerprints identical\n", killed, attempt)
			return nil
		case err != nil && killAfter > 0 && uint64(ckpts) >= killAfter:
			killed++
			fmt.Printf("kill %d: SIGKILL after checkpoint %d\n", killed, ckpts)
		case err != nil:
			return fmt.Errorf("worker died on its own: %w", err)
		default:
			return errors.New("worker exited clean without a fingerprint")
		}
	}
}

// killPlan returns the per-line callback that SIGKILLs the worker once
// it has printed n CKPT lines; nil means never kill.
func killPlan(n uint64) func(line string, proc *os.Process) {
	if n == 0 {
		return nil
	}
	var seen uint64
	return func(line string, proc *os.Process) {
		if strings.HasPrefix(line, "CKPT ") {
			seen++
			if seen >= n {
				proc.Signal(syscall.SIGKILL)
			}
		}
	}
}

// runOnce spawns one worker subprocess, streaming its stdout through
// onLine, and returns the FINGERPRINT value (empty if none) and the
// number of checkpoint lines seen.
func runOnce(args []string, onLine func(string, *os.Process)) (string, int, error) {
	cmd := exec.Command(os.Args[0], args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return "", 0, err
	}
	if err := cmd.Start(); err != nil {
		return "", 0, err
	}
	fingerprint, ckpts := "", 0
	sc := bufio.NewScanner(out)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "CKPT ") {
			ckpts++
		}
		if v, ok := strings.CutPrefix(line, "FINGERPRINT "); ok {
			fingerprint = v
		}
		if onLine != nil {
			onLine(line, cmd.Process)
		}
	}
	err = cmd.Wait()
	return fingerprint, ckpts, err
}
