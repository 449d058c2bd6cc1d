package experiments

import (
	"context"
	"fmt"

	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/report"
	"repro/internal/rt"
	"repro/internal/runspec"
	"repro/internal/stats"
)

// InferenceResult compares, for one application on the SMP, the three
// ways of obtaining sharing information the paper discusses: explicit
// user annotations (Section 2.3), no information at all (the ablation),
// and purely runtime inference from a software Cache Miss Lookaside
// buffer (the Section 7 extension implemented in internal/inference).
type InferenceResult struct {
	App  string
	CPUs int

	FCFS      PolicyRun
	Annotated PolicyRun
	None      PolicyRun
	Inferred  PolicyRun
}

// InferenceStudy runs the comparison for one application under LFF.
func InferenceStudy(appName string, cfg SchedConfig) (*InferenceResult, error) {
	if cfg.CPUs <= 1 {
		cfg.CPUs = 8
	}
	cfg = cfg.withDefaults()
	res := &InferenceResult{App: appName, CPUs: cfg.CPUs}

	var err error
	if res.FCFS, err = RunSched(appName, "FCFS", cfg); err != nil {
		return nil, err
	}
	if res.Annotated, err = RunSched(appName, "LFF", cfg); err != nil {
		return nil, err
	}
	none := cfg
	none.DisableAnnotations = true
	if res.None, err = RunSched(appName, "LFF", none); err != nil {
		return nil, err
	}
	inferred := none
	inferred.InferSharing = true
	if res.Inferred, err = RunSched(appName, "LFF", inferred); err != nil {
		return nil, err
	}
	return res, nil
}

// Eliminated returns the miss elimination of a variant vs FCFS.
func (r *InferenceResult) Eliminated(run PolicyRun) float64 {
	return stats.PercentEliminated(float64(r.FCFS.EMisses), float64(run.EMisses))
}

// Speedup returns the relative performance of a variant vs FCFS.
func (r *InferenceResult) Speedup(run PolicyRun) float64 {
	return stats.Ratio(float64(r.FCFS.Cycles), float64(run.Cycles))
}

// InferredRecovery returns how much of the annotated miss elimination
// the inference recovers, in percent.
func (r *InferenceResult) InferredRecovery() float64 {
	full := r.Eliminated(r.Annotated)
	if full <= 0 {
		return 0
	}
	return 100 * r.Eliminated(r.Inferred) / full
}

// Render produces the comparison table.
func (r *InferenceResult) Render() string {
	tbl := report.NewTable(
		fmt.Sprintf("Sharing-information sources — %s, LFF, %d CPUs (Section 7 extension)", r.App, r.CPUs),
		"variant", "E-misses", "eliminated%", "relative perf")
	row := func(name string, run PolicyRun) {
		elim := "-"
		if name != "FCFS baseline" {
			elim = fmt.Sprintf("%.1f", r.Eliminated(run))
		}
		tbl.AddRow(name, fmt.Sprint(run.EMisses), elim, fmt.Sprintf("%.2f", r.Speedup(run)))
	}
	row("FCFS baseline", r.FCFS)
	row("LFF, user annotations", r.Annotated)
	row("LFF, no sharing info", r.None)
	row("LFF, inferred (CML)", r.Inferred)
	tbl.Note("inference recovers %.0f%% of the annotated miss elimination with zero user annotations", r.InferredRecovery())
	return tbl.String()
}

// ProfiledResult extends the inference study with the paper's other
// Section 7 proposal: "repeated trial runs... may be another viable
// alternative for identifying shared pages". Because the simulation is
// deterministic, thread IDs are stable across runs, so a profiling run
// can harvest its full co-access evidence and a second run can start
// with those edges pre-installed — inference without any warm-up lag.
type ProfiledResult struct {
	Inference *InferenceResult
	// Profiled is the LFF run that starts with the profiling run's
	// harvested annotations (and inference off).
	Profiled PolicyRun
	// Edges is how many annotations the profile produced.
	Edges int
}

// ProfiledStudy runs the base inference comparison plus the two-run
// profile-then-annotate protocol for one application.
func ProfiledStudy(appName string, cfg SchedConfig) (*ProfiledResult, error) {
	base, err := InferenceStudy(appName, cfg)
	if err != nil {
		return nil, err
	}
	if cfg.CPUs <= 1 {
		cfg.CPUs = 8
	}
	cfg = cfg.withDefaults()

	// Trial run: profile with the monitor, keeping history.
	spec := runspec.Spec{App: appName, Policy: "LFF", CPUs: cfg.CPUs, Scale: cfg.Scale, Seed: cfg.Seed,
		NoAnnotations: true, Infer: true}
	_, prof, err := spec.Run(context.Background(), rt.Options{KeepInferenceHistory: true}, nil)
	if err != nil {
		return nil, err
	}

	// Production run: the harvested edges become static annotations
	// (thread IDs are stable across runs by determinism).
	spec.Infer = false
	edges := 0
	monitor := prof.Monitor()
	runMach, _, err := spec.Run(context.Background(), rt.Options{}, func(_ *machine.Machine, run *rt.Engine) {
		for tid := mem.ThreadID(0); tid < 1<<16; tid++ {
			if monitor.Pages(tid) == 0 {
				continue
			}
			for _, e := range monitor.EdgesFor(tid, 0.1, 8) {
				run.Graph().Share(tid, e.To, e.Q)
				edges++
			}
		}
	})
	if err != nil {
		return nil, err
	}
	refs, _, misses := runMach.Totals()
	return &ProfiledResult{
		Inference: base,
		Edges:     edges,
		Profiled: PolicyRun{
			App: appName, Policy: "LFF(profiled)", CPUs: cfg.CPUs,
			EMisses: misses, ERefs: refs, Cycles: runMach.MaxCycles(),
		},
	}, nil
}

// Render produces the extended comparison.
func (p *ProfiledResult) Render() string {
	r := p.Inference
	tbl := report.NewTable(
		fmt.Sprintf("Sharing-information sources incl. profile-then-annotate — %s, LFF, %d CPUs", r.App, r.CPUs),
		"variant", "E-misses", "eliminated%", "relative perf")
	row := func(name string, run PolicyRun) {
		elim := "-"
		if name != "FCFS baseline" {
			elim = fmt.Sprintf("%.1f", r.Eliminated(run))
		}
		tbl.AddRow(name, fmt.Sprint(run.EMisses), elim, fmt.Sprintf("%.2f", r.Speedup(run)))
	}
	row("FCFS baseline", r.FCFS)
	row("LFF, user annotations", r.Annotated)
	row("LFF, no sharing info", r.None)
	row("LFF, inferred online (CML)", r.Inferred)
	row("LFF, profiled trial run", p.Profiled)
	tbl.Note("the trial run installed %d inferred edges before the production run started", p.Edges)
	return tbl.String()
}
