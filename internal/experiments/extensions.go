package experiments

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/model"
	"repro/internal/parallel"
	"repro/internal/report"
	"repro/internal/rt"
	"repro/internal/runspec"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// AssocResult validates the set-associative model extension (Section
// 2.1's "can be extended to the associative cache case") end to end: a
// random walk on a machine whose E-cache is W-way LRU, with the
// observed footprint compared against both the per-set Poisson model
// and the direct-mapped closed form.
type AssocResult struct {
	Ways      int
	Misses    []float64
	Observed  []float64
	AssocPred []float64
	DMPred    []float64
}

// AssocStudy runs the associative random-walk study.
func AssocStudy(ways int, cfg StudyConfig) *AssocResult {
	cfg = cfg.withDefaults(20000)
	mcfg := machine.UltraSPARC1()
	mcfg.L2.Assoc = ways
	mcfg.TrackFootprints = true
	m := machine.New(mcfg)
	am := model.NewAssocModel(mcfg.L2.Sets(), ways)

	const walker mem.ThreadID = 0
	walk := m.AllocPages(uint64(64 * mcfg.L2.Size))
	m.RegisterState(walker, walk)
	// A sleeper initially fills the cache so the walker always evicts
	// foreign lines, matching the model's setup.
	const sleeper mem.ThreadID = 1
	fill := m.AllocPages(uint64(mcfg.L2.Size))
	m.RegisterState(sleeper, fill)
	m.Apply(0, sleeper, mem.Batch{{Base: fill.Base, Count: int32(mcfg.L2.Lines()),
		Stride: int32(mcfg.L2.LineSize), Size: 8}})

	gen := trace.NewGen(trace.Uniform(walk), cfg.Seed)
	cpu := m.CPU(0)
	m0 := cpu.EMisses
	res := &AssocResult{Ways: ways}
	next := cfg.Checkpoint
	var batch mem.Batch
	for {
		batch = batch[:0]
		batch, _ = gen.Emit(batch, 128)
		m.Apply(0, walker, batch)
		n := cpu.EMisses - m0
		if n >= next {
			res.Misses = append(res.Misses, float64(n))
			res.Observed = append(res.Observed, float64(m.Footprint(0, walker)))
			res.AssocPred = append(res.AssocPred, am.ExpectSelf(n))
			res.DMPred = append(res.DMPred, am.DirectMappedSelf(n))
			for next <= n {
				next += cfg.Checkpoint
			}
		}
		if n >= cfg.MaxMisses {
			break
		}
	}
	return res
}

// Errors returns the RMSE of the associative and direct-mapped
// predictions against the observation.
func (r *AssocResult) Errors() (assoc, dm float64) {
	return stats.RMSE(r.AssocPred, r.Observed), stats.RMSE(r.DMPred, r.Observed)
}

// Render produces the comparison.
func (r *AssocResult) Render() string {
	var b strings.Builder
	plot := &report.Plot{
		Title:  fmt.Sprintf("%d-way LRU E-cache: observed vs associative and direct-mapped models", r.Ways),
		XLabel: "E-cache misses",
		YLabel: "lines",
		Series: []*stats.Series{
			{Label: "observed", X: r.Misses, Y: r.Observed},
			{Label: "assoc model", X: r.Misses, Y: r.AssocPred},
			{Label: "direct-mapped model", X: r.Misses, Y: r.DMPred},
		},
	}
	plot.WriteTo(&b)
	ae, de := r.Errors()
	tbl := report.NewTable("Model accuracy on the associative cache", "model", "RMSE (lines)")
	tbl.AddRow("per-set Poisson (extension)", fmt.Sprintf("%.1f", ae))
	tbl.AddRow("direct-mapped closed form", fmt.Sprintf("%.1f", de))
	tbl.Note("LRU protects the runner's fresh lines, so the direct-mapped form underestimates; the extension tracks it")
	b.WriteString("\n")
	tbl.WriteTo(&b)
	return b.String()
}

// ScalingResult sweeps the processor count for every application: the
// Figure 8→9 transition as a curve rather than two points.
type ScalingResult struct {
	CPUs []int
	// Elim[app][i] is LFF's miss elimination % at CPUs[i];
	// Speedup[app][i] the relative performance; Util[app][i] LFF's
	// machine utilization.
	Elim    map[string][]float64
	Speedup map[string][]float64
	Util    map[string][]float64
	Apps    []string
}

// ScalingStudy runs FCFS and LFF for each application across machine
// sizes.
func ScalingStudy(cfg SchedConfig, cpus []int) (*ScalingResult, error) {
	if len(cpus) == 0 {
		cpus = []int{1, 2, 4, 8, 16}
	}
	res := &ScalingResult{
		CPUs:    cpus,
		Elim:    make(map[string][]float64),
		Speedup: make(map[string][]float64),
		Util:    make(map[string][]float64),
		Apps:    []string{"tasks", "merge", "photo", "tsp"},
	}
	// One cell per (app, CPU count); each cell runs its FCFS/LFF pair.
	type pair struct{ fcfs, lff PolicyRun }
	cells, err := parallel.Map(cfg.Jobs, len(res.Apps)*len(cpus), func(i int) (pair, error) {
		c := cfg
		c.CPUs = cpus[i%len(cpus)]
		app := res.Apps[i/len(cpus)]
		fcfs, err := RunSched(app, "FCFS", c)
		if err != nil {
			return pair{}, err
		}
		lff, err := RunSched(app, "LFF", c)
		if err != nil {
			return pair{}, err
		}
		return pair{fcfs, lff}, nil
	})
	if err != nil {
		return nil, err
	}
	for i, cell := range cells {
		app := res.Apps[i/len(cpus)]
		res.Elim[app] = append(res.Elim[app],
			stats.PercentEliminated(float64(cell.fcfs.EMisses), float64(cell.lff.EMisses)))
		res.Speedup[app] = append(res.Speedup[app],
			stats.Ratio(float64(cell.fcfs.Cycles), float64(cell.lff.Cycles)))
		res.Util[app] = append(res.Util[app], cell.lff.Utilization())
	}
	return res, nil
}

// Render produces the scaling tables.
func (r *ScalingResult) Render() string {
	cols := []string{"app"}
	for _, n := range r.CPUs {
		cols = append(cols, fmt.Sprintf("%d cpu", n))
	}
	elim := report.NewTable("LFF miss elimination % vs processor count", cols...)
	perf := report.NewTable("LFF relative performance vs processor count", cols...)
	util := report.NewTable("LFF machine utilization vs processor count", cols...)
	for _, app := range r.Apps {
		er := []string{app}
		pr := []string{app}
		ur := []string{app}
		for i := range r.CPUs {
			er = append(er, fmt.Sprintf("%.1f", r.Elim[app][i]))
			pr = append(pr, fmt.Sprintf("%.2f", r.Speedup[app][i]))
			ur = append(ur, fmt.Sprintf("%.0f%%", 100*r.Util[app][i]))
		}
		elim.AddRow(er...)
		perf.AddRow(pr...)
		util.AddRow(ur...)
	}
	return elim.String() + "\n" + perf.String() + "\n" + util.String()
}

// ThresholdResult sweeps the heap demotion threshold — the one free
// parameter of the Section 4 framework ("threads whose footprints drop
// below a certain threshold... are removed from that heap").
type ThresholdResult struct {
	Thresholds []float64
	// Elim[app][i] is LFF elimination % at Thresholds[i].
	Elim map[string][]float64
	Apps []string
}

// ThresholdStudy measures LFF's sensitivity to the demotion threshold.
func ThresholdStudy(cfg SchedConfig, thresholds []float64) (*ThresholdResult, error) {
	if len(thresholds) == 0 {
		thresholds = []float64{4, 16, 64, 256}
	}
	res := &ThresholdResult{
		Thresholds: thresholds,
		Elim:       make(map[string][]float64),
		Apps:       []string{"tasks", "photo", "tsp"},
	}
	if cfg.CPUs <= 1 {
		cfg.CPUs = 8
	}
	// One cell per (app, threshold) LFF run plus one FCFS baseline per
	// app, all independent.
	baselines, err := parallel.Map(cfg.Jobs, len(res.Apps), func(i int) (PolicyRun, error) {
		return RunSched(res.Apps[i], "FCFS", cfg)
	})
	if err != nil {
		return nil, err
	}
	runs, err := parallel.Map(cfg.Jobs, len(res.Apps)*len(thresholds), func(i int) (PolicyRun, error) {
		c := cfg
		c.Threshold = thresholds[i%len(thresholds)]
		return RunSched(res.Apps[i/len(thresholds)], "LFF", c)
	})
	if err != nil {
		return nil, err
	}
	for i, lff := range runs {
		app := res.Apps[i/len(thresholds)]
		fcfs := baselines[i/len(thresholds)]
		res.Elim[app] = append(res.Elim[app],
			stats.PercentEliminated(float64(fcfs.EMisses), float64(lff.EMisses)))
	}
	return res, nil
}

// Render produces the threshold table.
func (r *ThresholdResult) Render() string {
	cols := []string{"app"}
	for _, th := range r.Thresholds {
		cols = append(cols, fmt.Sprintf("th=%.0f", th))
	}
	tbl := report.NewTable("LFF miss elimination % vs heap demotion threshold (lines), 8 CPUs", cols...)
	for _, app := range r.Apps {
		row := []string{app}
		for i := range r.Thresholds {
			row = append(row, fmt.Sprintf("%.1f", r.Elim[app][i]))
		}
		tbl.AddRow(row...)
	}
	tbl.Note("too high a threshold demotes live footprints (tsp's per-round state); too low keeps stale entries in the heaps")
	return tbl.String()
}

// SpawnStackResult is the work-first spawn-stack design ablation: the
// paper describes a single global queue for cold threads, while its
// load-balancing citation (Blumofe-Leiserson) suggests per-CPU LIFO
// spawn stacks with oldest-first stealing. This study measures both
// disciplines under LFF.
type SpawnStackResult struct {
	CPUs int
	// Global[app] and Stacks[app] are LFF miss eliminations vs FCFS.
	Global, Stacks map[string]float64
	Apps           []string
}

// SpawnStackStudy runs the ablation on the SMP.
func SpawnStackStudy(cfg SchedConfig) (*SpawnStackResult, error) {
	if cfg.CPUs <= 1 {
		cfg.CPUs = 8
	}
	cfg = cfg.withDefaults()
	res := &SpawnStackResult{
		CPUs:   cfg.CPUs,
		Global: make(map[string]float64),
		Stacks: make(map[string]float64),
		Apps:   []string{"tasks", "merge", "photo", "tsp"},
	}
	// Three independent runs per app, flattened into one cell matrix.
	stacked := cfg
	stacked.SpawnStacks = true
	variants := []struct {
		policy string
		cfg    SchedConfig
	}{{"FCFS", cfg}, {"LFF", cfg}, {"LFF", stacked}}
	runs, err := parallel.Map(cfg.Jobs, len(res.Apps)*len(variants), func(i int) (PolicyRun, error) {
		v := variants[i%len(variants)]
		return RunSched(res.Apps[i/len(variants)], v.policy, v.cfg)
	})
	if err != nil {
		return nil, err
	}
	for i := 0; i < len(res.Apps); i++ {
		app := res.Apps[i]
		fcfs, lff, lffS := runs[3*i], runs[3*i+1], runs[3*i+2]
		res.Global[app] = stats.PercentEliminated(float64(fcfs.EMisses), float64(lff.EMisses))
		res.Stacks[app] = stats.PercentEliminated(float64(fcfs.EMisses), float64(lffS.EMisses))
	}
	return res, nil
}

// Render produces the ablation table.
func (r *SpawnStackResult) Render() string {
	tbl := report.NewTable(
		fmt.Sprintf("Spawn discipline ablation — LFF miss elimination %%, %d CPUs", r.CPUs),
		"app", "global FIFO (paper)", "work-first spawn stacks")
	for _, app := range r.Apps {
		tbl.AddRow(app,
			fmt.Sprintf("%.1f", r.Global[app]),
			fmt.Sprintf("%.1f", r.Stacks[app]))
	}
	tbl.Note("spawn stacks trade queue locality for subtree depth-first order; on these workloads the paper's global FIFO is competitive")
	return tbl.String()
}

// TLBRow is one application's cost with and without the data-TLB model.
type TLBRow struct {
	App          string
	CyclesPerf   uint64 // cycles with a perfect TLB (the default model)
	CyclesTLB    uint64 // cycles with the 64-entry UltraSPARC dTLB
	TLBMisses    uint64
	SlowdownPct  float64
	MissesPerRef float64
}

// TLBResult quantifies the fidelity knob the TLB model adds: how much
// of each study application's time the default perfect-TLB assumption
// hides.
type TLBResult struct {
	Rows []TLBRow
}

// TLBStudy runs each study stream with and without the TLB model.
func TLBStudy(cfg StudyConfig) *TLBResult {
	cfg = cfg.withDefaults(40000)
	apps := workloads.StudyApps()
	rows, _ := parallel.Map(cfg.Jobs, len(apps), func(i int) (TLBRow, error) {
		app := apps[i]
		row := TLBRow{App: app.Name}
		const budget = 800_000
		for _, entries := range []int{0, 64} {
			mcfg := machine.UltraSPARC1()
			mcfg.TLBEntries = entries
			m := workloads.StreamRun(app, mcfg, cfg.Seed, budget)
			cpu := m.CPU(0)
			if entries == 0 {
				row.CyclesPerf = cpu.Cycles
			} else {
				row.CyclesTLB = cpu.Cycles
				row.TLBMisses = cpu.TLBMisses
				row.MissesPerRef = float64(cpu.TLBMisses) / float64(budget)
			}
		}
		row.SlowdownPct = 100 * (float64(row.CyclesTLB) - float64(row.CyclesPerf)) / float64(row.CyclesPerf)
		return row, nil
	})
	return &TLBResult{Rows: rows}
}

// Render produces the TLB sensitivity table.
func (r *TLBResult) Render() string {
	tbl := report.NewTable("Data-TLB sensitivity (64-entry UltraSPARC dTLB vs perfect TLB)",
		"app", "TLB misses", "per ref", "slowdown")
	for _, row := range r.Rows {
		tbl.AddRow(row.App,
			fmt.Sprint(row.TLBMisses),
			fmt.Sprintf("%.4f", row.MissesPerRef),
			fmt.Sprintf("%+.1f%%", row.SlowdownPct))
	}
	tbl.Note("the reproduction's default is a perfect TLB (the paper's model and measurements do not include TLB effects); this quantifies what that assumption hides")
	return tbl.String()
}

// CoarseRow is one coarse-grained SPLASH-style run compared across
// policies.
type CoarseRow struct {
	App      string
	FCFS     uint64
	LFF      uint64
	ElimPct  float64
	SpeedPct float64
}

// CoarseResult examines the SPLASH regime the paper excludes from its
// scheduling study (one long-lived thread per processor, barrier
// phases). The paper's point is that such programs do not exemplify
// fine-grained threading; this control shows what locality scheduling
// still contributes there: the only decision left is putting each
// worker back on its own cache after every barrier, which the
// footprint model gets right and an affinity-free FCFS baseline
// shuffles away.
type CoarseResult struct {
	CPUs int
	Rows []CoarseRow
}

// CoarseStudy runs two representative study applications coarse-grained
// on the SMP under FCFS and LFF.
func CoarseStudy(cfg SchedConfig) (*CoarseResult, error) {
	if cfg.CPUs <= 1 {
		cfg.CPUs = 8
	}
	cfg = cfg.withDefaults()
	res := &CoarseResult{CPUs: cfg.CPUs}
	names := []string{"barnes", "ocean"}
	rows, err := parallel.Map(cfg.Jobs, len(names), func(i int) (CoarseRow, error) {
		name := names[i]
		app, err := workloads.StudyAppByName(name)
		if err != nil {
			return CoarseRow{}, err
		}
		var misses [2]uint64
		var cycles [2]uint64
		for j, policy := range []string{"FCFS", "LFF"} {
			m, e, err := runspec.Spec{App: name, Policy: policy, CPUs: cfg.CPUs, Seed: cfg.Seed}.Build(rt.Options{})
			if err != nil {
				return CoarseRow{}, err
			}
			workloads.SpawnCoarse(e, app, cfg.CPUs, 6, int(100_000*cfg.Scale)+10_000)
			if err := e.Run(context.Background()); err != nil {
				return CoarseRow{}, err
			}
			_, _, misses[j] = m.Totals()
			cycles[j] = m.MaxCycles()
		}
		return CoarseRow{
			App: name, FCFS: misses[0], LFF: misses[1],
			ElimPct:  stats.PercentEliminated(float64(misses[0]), float64(misses[1])),
			SpeedPct: 100 * (float64(cycles[0])/float64(cycles[1]) - 1),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	res.Rows = rows
	return res, nil
}

// Render produces the coarse-grained control table.
func (r *CoarseResult) Render() string {
	tbl := report.NewTable(
		fmt.Sprintf("Coarse-grained control — one thread per CPU, %d CPUs (the SPLASH regime)", r.CPUs),
		"app", "FCFS misses", "LFF misses", "eliminated", "perf delta")
	for _, row := range r.Rows {
		tbl.AddRow(row.App, fmt.Sprint(row.FCFS), fmt.Sprint(row.LFF),
			fmt.Sprintf("%+.1f%%", row.ElimPct), fmt.Sprintf("%+.1f%%", row.SpeedPct))
	}
	tbl.Note("the only decision left in this regime is barrier-wake affinity: the footprint model pins each worker to its partition's cache, while affinity-free FCFS shuffles workers across processors every phase")
	return tbl.String()
}
