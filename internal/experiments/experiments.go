// Package experiments implements one driver per table and figure of the
// paper's evaluation. Each driver returns a typed result whose Render
// method produces the rows/series the paper reports; cmd/repro prints
// them and bench_test.go regenerates them under `go test -bench`.
//
// The per-experiment index lives in DESIGN.md; the paper-vs-measured
// record lives in EXPERIMENTS.md.
package experiments

import (
	"context"
	"fmt"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/cachesim"
	"repro/internal/obs"
	"repro/internal/rt"
	"repro/internal/runspec"
)

// Policies are the scheduling policies of Section 5, baseline first.
var Policies = []string{"FCFS", "LFF", "CRT"}

// PolicyRun is the outcome of one application run under one policy.
type PolicyRun struct {
	App      string
	Policy   string
	CPUs     int
	EMisses  uint64
	ERefs    uint64
	Cycles   uint64
	Instrs   uint64
	Steals   uint64
	HeapOps  uint64
	Dispatch uint64
	// IdleCycles is the summed per-CPU idle time; utilization is
	// 1 − Idle/(Cycles·CPUs).
	IdleCycles uint64
}

// Utilization returns the machine utilization of the run in [0, 1].
func (r PolicyRun) Utilization() float64 {
	total := float64(r.Cycles) * float64(r.CPUs)
	if total == 0 {
		return 0
	}
	u := 1 - float64(r.IdleCycles)/total
	if u < 0 {
		return 0
	}
	return u
}

// MissRatio returns EMisses/ERefs.
func (r PolicyRun) MissRatio() float64 {
	if r.ERefs == 0 {
		return 0
	}
	return float64(r.EMisses) / float64(r.ERefs)
}

// SchedConfig parameterizes a Section 5 style run.
type SchedConfig struct {
	// CPUs selects the platform: 1 = Ultra-1 (42-cycle miss), >1 =
	// Enterprise 5000 (50/80-cycle miss).
	CPUs int
	// Scale shrinks the workload for fast runs; 1.0 reproduces the
	// paper's Table 4 parameters.
	Scale float64
	// Seed fixes all run randomness.
	Seed uint64
	// DisableAnnotations runs the annotation ablation.
	DisableAnnotations bool
	// InferSharing replaces user annotations with runtime inference
	// (the Section 7 extension).
	InferSharing bool
	// Threshold overrides the heap demotion threshold in lines (0 =
	// the runtime default).
	Threshold float64
	// SpawnStacks enables the work-first spawn-stack ablation.
	SpawnStacks bool
	// Jobs is the number of worker threads used to fan independent
	// cells (app × policy runs) of a multi-cell experiment across CPUs:
	// 0 uses every processor, 1 runs sequentially. Results are
	// bit-identical for any value — every cell owns its machine and
	// RNG stream and is collected by index (see internal/parallel).
	Jobs int
	// Obs, when non-nil, attaches an observability session: every cell
	// run registers an observer under a key derived purely from the
	// cell's configuration, so session exports are byte-identical for
	// any Jobs value.
	Obs *obs.Session
	// CheckpointEvery enables crash-safe checkpointing: every run
	// writes a verified-resumable snapshot each time its virtual clock
	// crosses a boundary (0 disables). Requires CheckpointPath or
	// CheckpointDir. Checkpoint capture is read-only, so results are
	// bit-identical with and without it.
	CheckpointEvery uint64
	// CheckpointPath is the snapshot file of a single run. For
	// multi-cell experiments use CheckpointDir instead: each cell's
	// file is derived from its cell key, so results stay independent
	// of Jobs.
	CheckpointPath string
	// CheckpointDir places each cell's snapshot at
	// <dir>/<sanitized cell key>.snap.
	CheckpointDir string
	// Resume loads each run's snapshot file (from CheckpointPath or
	// CheckpointDir) if one exists, re-executes deterministically to
	// its cursor, verifies bit-exact agreement and continues; runs
	// whose file does not exist start fresh, so an interrupted
	// multi-cell sweep resumes exactly where each cell left off.
	Resume bool
	// StallTimeout arms the engine's stall watchdog (see rt.Options).
	StallTimeout time.Duration
	// Topology selects the cache organisation ("" or "private-dm" for
	// the paper's private hierarchy; "shared-llc", "shared-assoc:W",
	// "shared-fa" for the shared variants — see cachesim.ParseTopology).
	Topology string
}

// Spec is the run spec of one cell of the experiment: app under policy
// with the config's platform, scale, seed and ablations.
func (c SchedConfig) Spec(app, policy string) (runspec.Spec, error) {
	c = c.withDefaults()
	topo, err := cachesim.ParseTopology(c.Topology)
	return runspec.Spec{
		App: app, Policy: policy, CPUs: c.CPUs, Topology: topo,
		Scale: c.Scale, Seed: c.Seed,
		NoAnnotations: c.DisableAnnotations, Infer: c.InferSharing,
		Threshold: c.Threshold, SpawnStacks: c.SpawnStacks,
	}, err
}

// checkpointConfig resolves the run's snapshot path and, when resuming,
// loads the stored snapshot. A Resume with no snapshot file present
// starts fresh — that is what lets a killed multi-cell sweep restart
// with every cell picking up from its own last boundary.
func (c SchedConfig) checkpointConfig(spec runspec.Spec) (rt.CheckpointConfig, error) {
	cfg := rt.CheckpointConfig{Every: c.CheckpointEvery, Path: c.CheckpointPath}
	if cfg.Path == "" && c.CheckpointDir != "" {
		cfg.Path = filepath.Join(c.CheckpointDir,
			strings.NewReplacer("/", "_", " ", "_").Replace(spec.Key())+".snap")
	}
	if c.Resume && cfg.Path != "" {
		st, err := runspec.LoadResume(cfg.Path)
		if err != nil {
			return rt.CheckpointConfig{}, err
		}
		cfg.Resume = st
	}
	return cfg, nil
}

func (c SchedConfig) withDefaults() SchedConfig {
	if c.CPUs == 0 {
		c.CPUs = 1
	}
	if c.Scale == 0 {
		c.Scale = 1
	}
	if c.Seed == 0 {
		c.Seed = 11
	}
	return c
}

// RunSched executes one application under one policy and returns its
// counters. It is the primitive behind Figures 8 and 9, Table 5 and the
// annotation ablation.
func RunSched(appName, policy string, cfg SchedConfig) (PolicyRun, error) {
	cfg = cfg.withDefaults()
	fail := func(err error) (PolicyRun, error) {
		return PolicyRun{}, fmt.Errorf("experiments: %s/%s/%dcpu: %w", appName, policy, cfg.CPUs, err)
	}
	spec, err := cfg.Spec(appName, policy)
	if err == nil {
		err = spec.Validate()
	}
	if err != nil {
		return fail(err)
	}
	ckpt, err := cfg.checkpointConfig(spec)
	if err != nil {
		return fail(err)
	}
	m, e, err := spec.Run(context.Background(), rt.Options{
		Obs:          cfg.Obs.Observer(spec.Key(), cfg.CPUs),
		Checkpoint:   ckpt,
		StallTimeout: cfg.StallTimeout,
	}, nil)
	if err != nil {
		return fail(err)
	}
	refs, _, misses := m.Totals()
	snap := e.Snapshot()
	var idle uint64
	for _, ic := range snap.IdleCycles {
		idle += ic
	}
	return PolicyRun{
		App:        appName,
		Policy:     policy,
		CPUs:       cfg.CPUs,
		EMisses:    misses,
		ERefs:      refs,
		Cycles:     m.MaxCycles(),
		Instrs:     m.TotalInstrs(),
		Steals:     snap.SchedOps.Steals,
		HeapOps:    snap.SchedOps.Total(),
		Dispatch:   snap.TotalDispatches(),
		IdleCycles: idle,
	}, nil
}
