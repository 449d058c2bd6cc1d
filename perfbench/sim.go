package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"path/filepath"
	"syscall"
	"time"

	"repro/internal/experiments"
	"repro/internal/machine"
	"repro/internal/platform"
	"repro/internal/platform/sim"
	"repro/internal/rt"
	"repro/internal/workloads"
)

// Workload sizes. fig9Scale is the reduced Table 4 scale the root
// package's BenchmarkFig9EightCPU uses; the fine-grain tasks are tiny
// (four lines of state) so that dispatch, not the data sweep, is the
// work.
const (
	simCPUs     = 8
	fig9Scale   = 0.08
	fineTasks   = 128
	fineLines   = 4
	finePeriods = 200
	// simTail is the op_tail_ms quantile of round latency: a run holds
	// about 50 rounds, so p80 is the highest with ten rounds beyond it.
	simTail = 0.8
)

// cell is one engine run of a simulation workload.
type cell struct {
	app, policy string
	seed        uint64
	spawn       func(*rt.Engine)
}

func (c cell) key() string { return c.app + "." + c.policy }

// simCells generates the workload's cells from the seed; the programs
// see only these generated configs.
func simCells(workload string, seed uint64) ([]cell, experiments.SchedConfig, error) {
	var cells []cell
	switch workload {
	case "fig9-grid":
		cfg := experiments.SchedConfig{CPUs: simCPUs, Scale: fig9Scale, Seed: splitmix(seed, 0),
			Jobs: 1, Topology: "private-dm"}
		apps := workloads.SchedApps()
		if len(apps) != len(cellApps) {
			return nil, cfg, fmt.Errorf("workloads has %d apps, the benchmark names %d", len(apps), len(cellApps))
		}
		for i, app := range apps {
			if app.Name != cellApps[i] {
				return nil, cfg, fmt.Errorf("app %d is %s, the benchmark names %s", i, app.Name, cellApps[i])
			}
			for j, pol := range experiments.Policies {
				if pol != cellPolicies[j] {
					return nil, cfg, fmt.Errorf("policy %d is %s, the benchmark names %s", j, pol, cellPolicies[j])
				}
				spawn := app.Spawn
				cells = append(cells, cell{app.Name, pol, cfg.Seed,
					func(e *rt.Engine) { spawn(e, cfg.Scale) }})
			}
		}
		return cells, cfg, nil
	case "fine-grain":
		tc := workloads.TasksConfig{Tasks: fineTasks, FootprintLines: fineLines, Periods: finePeriods, LineSize: 64}
		for _, pol := range cellPolicies {
			cells = append(cells, cell{"tasks", pol, splitmix(seed, 1),
				func(e *rt.Engine) { workloads.SpawnTasks(e, tc) }})
		}
		return cells, experiments.SchedConfig{}, nil
	}
	return nil, experiments.SchedConfig{}, fmt.Errorf("not a simulation workload: %s", workload)
}

// cellRun is one finished engine run: the experiments counters plus
// the scheduler work counts the traced run reports.
type cellRun struct {
	experiments.PolicyRun
	prioUpdates, demotions uint64
}

// engineFor builds the engine experiments.RunSched builds for a cell,
// through the timing wrapper when acc is non-nil.
func engineFor(c cell, acc *layerAcc) (*machine.Machine, *rt.Engine, error) {
	m := machine.New(machine.Enterprise5000(simCPUs))
	var p platform.Platform = sim.New(m)
	if acc != nil {
		p = timedPlatform{Platform: p, acc: acc}
	}
	e, err := rt.New(p, rt.Options{Policy: c.policy, Seed: c.seed})
	if err != nil {
		return nil, nil, err
	}
	c.spawn(e)
	return m, e, nil
}

// collect reads a finished run's counters the way experiments.RunSched
// does.
func collect(c cell, m *machine.Machine, e *rt.Engine) cellRun {
	refs, _, misses := m.Totals()
	snap := e.Snapshot()
	var idle uint64
	for _, ic := range snap.IdleCycles {
		idle += ic
	}
	return cellRun{
		PolicyRun: experiments.PolicyRun{
			App: c.app, Policy: c.policy, CPUs: simCPUs,
			EMisses: misses, ERefs: refs, Cycles: m.MaxCycles(), Instrs: m.TotalInstrs(),
			Steals: snap.SchedOps.Steals, HeapOps: snap.SchedOps.Total(),
			Dispatch: snap.TotalDispatches(), IdleCycles: idle,
		},
		prioUpdates: snap.SchedOps.PrioUpdates,
		demotions:   snap.SchedOps.Demotions,
	}
}

// simPass is the measurement of one pass (untraced or traced) of rounds.
type simPass struct {
	roundSecs, roundInstrs []float64
	roundRSS               []float64 // peak RSS of each round, MB
	roundCPU               []float64 // CPU seconds this process spent on each round
	refCPU                 []float64 // CPU seconds of the host reference before each round
	setupSecs              []float64 // wall seconds of the setup probe before each round
	attempted, failed      int64
	mismatches             int
	// last holds the final round's runs (traced passes only).
	last []cellRun
}

// simBench runs one simulation workload.
type simBench struct {
	o     opts
	cells []cell
	cfg   experiments.SchedConfig
	ref   []cellRun // the reference counters every run must repeat
	// seamRef and schedRef are the first traced round's seam counts and
	// scheduler counts, which every later traced round must repeat.
	seamRef  *layerAcc
	schedRef []cellRun
}

func runSim(o opts) (outcome, error) {
	cells, cfg, err := simCells(o.workload, o.seed)
	if err != nil {
		return outcome{}, err
	}
	b := &simBench{o: o, cells: cells, cfg: cfg}
	out := outcome{correct: true, metrics: map[string]float64{}}

	// Reference and warm-up: the grid as experiments.Fig9 computes it,
	// or one fine-grain round.
	if err := b.reference(&out); err != nil {
		return out, err
	}

	if !o.trace {
		ref, err := startHostRef()
		if err != nil {
			return out, err
		}
		p, err := b.pass(o.seconds, nil, nil, ref)
		if serr := ref.stop(); err == nil && serr != nil {
			err = fmt.Errorf("host reference: %w", serr)
		}
		if err != nil {
			return out, err
		}
		// host is how much slower than the reference speed the host ran.
		host := median(p.refCPU) / refNominalSecs
		setup := median(p.setupSecs)
		out.attempted += p.attempted
		out.failed += p.failed
		if p.mismatches > 0 {
			out.correct = false
		}
		tput := func(secs []float64) float64 {
			t := make([]float64, len(secs))
			for i, s := range secs {
				t[i] = p.roundInstrs[i] / s / 1e6
			}
			return median(t)
		}
		out.metrics["setup_s"] = setup / host
		out.metrics["peak_rss_mb"] = median(p.roundRSS)
		out.metrics["sim_minstr_per_s"] = tput(p.roundCPU) * host
		out.metrics["op_p50_ms"] = quantile(p.roundCPU, 0.5) * 1e3 / host
		out.metrics["op_tail_ms"] = quantile(p.roundCPU, simTail) * 1e3 / host
		out.extra = append(out.extra,
			fmt.Sprintf("# host ran %.3fx the reference time (reference kernel median %.6g ms CPU); %d rounds",
				host, median(p.refCPU)*1e3, len(p.roundSecs)),
			fmt.Sprintf("# CPU time, not normalised: sim_minstr_per_s %.6g, op_p50_ms %.6g, op_tail_ms %.6g",
				tput(p.roundCPU), quantile(p.roundCPU, 0.5)*1e3, quantile(p.roundCPU, simTail)*1e3),
			fmt.Sprintf("# wall clock, not normalised: sim_minstr_per_s %.6g, op_p50_ms %.6g, op_tail_ms %.6g, setup_s %.6g",
				tput(p.roundSecs), quantile(p.roundSecs, 0.5)*1e3, quantile(p.roundSecs, simTail)*1e3, setup))
		return out, nil
	}
	return out, b.traced(&out)
}

// reference computes the counters every later round must reproduce and
// checks them against the recorded digest on the default seed.
func (b *simBench) reference(out *outcome) error {
	out.attempted += int64(len(b.cells))
	if b.o.workload == "fig9-grid" {
		grid, err := experiments.Fig9(b.cfg)
		if err != nil {
			out.failed += int64(len(b.cells))
			return err
		}
		for _, c := range b.cells {
			r, ok := grid.Runs[c.app][c.policy]
			if !ok {
				return fmt.Errorf("experiments.Fig9 returned no %s cell", c.key())
			}
			b.ref = append(b.ref, cellRun{PolicyRun: r})
		}
	} else {
		for _, c := range b.cells {
			m, e, err := engineFor(c, nil)
			if err == nil {
				err = e.Run(context.Background())
			}
			if err != nil {
				out.failed++
				return fmt.Errorf("%s: %w", c.key(), err)
			}
			b.ref = append(b.ref, collect(c, m, e))
		}
	}
	got := digest(b.ref)
	if b.o.seed == defaultSeed && got != recordedDigest[b.o.workload] {
		checkFailed("%s seed %d: counter digest %s, recorded %s", b.o.workload, b.o.seed, got, recordedDigest[b.o.workload])
		out.correct = false
	}
	return nil
}

// digest is a stable hash of the counters of every cell, in cell order.
func digest(runs []cellRun) string {
	h := sha256.New()
	for _, r := range runs {
		fmt.Fprintf(h, "%s %s %d refs=%d misses=%d cycles=%d instrs=%d dispatch=%d\n",
			r.App, r.Policy, r.CPUs, r.ERefs, r.EMisses, r.Cycles, r.Instrs, r.Dispatch)
	}
	return hex.EncodeToString(h.Sum(nil)[:12])
}

// same compares the experiments counters of a run with the reference.
func (b *simBench) same(i int, got cellRun, pass string) bool {
	if got.PolicyRun == b.ref[i].PolicyRun {
		return true
	}
	checkFailed("%s %s pass: cell %s counters %+v differ from the reference %+v",
		b.o.workload, pass, b.cells[i].key(), got.PolicyRun, b.ref[i].PolicyRun)
	return false
}

// pass runs whole rounds until seconds of host time are used. With acc
// and tr set, every cell runs through the timing wrapper and is traced.
// With ref set, the host reference kernel and a setup probe run before
// every round, so that setup_s and the reference speed are sampled over
// the same host phases as the rounds.
func (b *simBench) pass(seconds float64, acc *layerAcc, tr *tracer, ref *hostRef) (simPass, error) {
	var p simPass
	start := time.Now()
	for time.Since(start).Seconds() < seconds || len(p.roundSecs) == 0 {
		if ref != nil {
			secs, err := ref.measure()
			if err != nil {
				return p, err
			}
			p.refCPU = append(p.refCPU, secs)
			if secs, err = probeSetup(b.o); err != nil {
				return p, err
			}
			p.setupSecs = append(p.setupSecs, secs)
		}
		round := 0
		var before layerAcc
		if tr != nil {
			round = tr.begin("round", "round", 0)
			before = *acc
		}
		if err := resetPeakRSS("self"); err != nil {
			return p, err
		}
		r0, c0 := time.Now(), cpuSeconds()
		runs, errs := b.round(acc, tr, round)
		p.roundSecs = append(p.roundSecs, time.Since(r0).Seconds())
		p.roundCPU = append(p.roundCPU, cpuSeconds()-c0)
		rss, err := peakRSSMB("self")
		if err != nil {
			return p, err
		}
		p.roundRSS = append(p.roundRSS, rss)
		var instrs float64
		for i, err := range errs {
			p.attempted++
			if err != nil {
				p.failed++
				p.mismatches++
				checkFailed("%s: %v", b.cells[i].key(), err)
				continue
			}
			if !b.same(i, runs[i], passName(tr)) {
				p.mismatches++
			}
			instrs += float64(runs[i].Instrs)
		}
		p.roundInstrs = append(p.roundInstrs, instrs)
		if tr != nil {
			tr.end(round)
			p.mismatches += b.sameSimCounts(before, *acc, runs)
			p.last = runs
		}
	}
	return p, nil
}

// sameSimCounts checks that a traced round repeats the first traced
// round's seam call counts and scheduler counts; it returns the number
// of differences.
func (b *simBench) sameSimCounts(before, after layerAcc, runs []cellRun) int {
	got := layerAcc{applyCalls: after.applyCalls - before.applyCalls,
		touchCalls: after.touchCalls - before.touchCalls, access: after.access - before.access}
	if b.seamRef == nil {
		b.seamRef, b.schedRef = &got, runs
		return 0
	}
	bad := 0
	if got != *b.seamRef {
		checkFailed("%s: seam counts %+v differ from the first traced round's %+v", b.o.workload, got, *b.seamRef)
		bad++
	}
	for i, r := range runs {
		if r != b.schedRef[i] {
			checkFailed("%s: cell %s scheduler counts %+v differ from the first traced round's %+v",
				b.o.workload, b.cells[i].key(), r, b.schedRef[i])
			bad++
		}
	}
	return bad
}

func passName(tr *tracer) string {
	if tr != nil {
		return "traced"
	}
	return "untraced"
}

// round runs every cell once. Untraced fig9-grid rounds are one call
// of experiments.Fig9 (with one worker, as the traced rounds run);
// every other round builds each cell's engine itself, through the
// timing wrapper when traced.
func (b *simBench) round(acc *layerAcc, tr *tracer, parent int) ([]cellRun, []error) {
	runs := make([]cellRun, len(b.cells))
	errs := make([]error, len(b.cells))
	if tr == nil && b.o.workload == "fig9-grid" {
		grid, err := experiments.Fig9(b.cfg)
		for i, c := range b.cells {
			if err != nil {
				errs[i] = err
			} else {
				runs[i] = cellRun{PolicyRun: grid.Runs[c.app][c.policy]}
			}
		}
		return runs, errs
	}
	for i, c := range b.cells {
		runs[i], errs[i] = b.runOne(c, acc, tr, parent)
	}
	return runs, errs
}

// runOne runs one cell, tracing it when tr is set.
func (b *simBench) runOne(c cell, acc *layerAcc, tr *tracer, parent int) (cellRun, error) {
	var cs int
	if tr != nil {
		cs = tr.begin("cell", c.key(), parent)
		defer tr.end(cs)
	}
	m, e, err := engineFor(c, acc)
	if err != nil {
		return cellRun{}, err
	}
	var rs int
	if tr != nil {
		rs = tr.begin("rt.Engine.Run", c.key(), cs)
	}
	err = e.Run(context.Background())
	if tr != nil {
		tr.end(rs)
	}
	if err != nil {
		return cellRun{}, err
	}
	return collect(c, m, e), nil
}

// traced runs half the time untraced and half through the timing
// wrapper, checks both against the reference and reports the layers.
func (b *simBench) traced(out *outcome) error {
	plain, err := b.pass(b.o.seconds/2, nil, nil, nil)
	if err != nil {
		return err
	}
	acc := &layerAcc{}
	tr := newTracer()
	g0 := readGo()
	traced, err := b.pass(b.o.seconds/2, acc, tr, nil)
	g1 := readGo()
	if err != nil {
		return err
	}
	for _, p := range []simPass{plain, traced} {
		out.attempted += p.attempted
		out.failed += p.failed
		if p.mismatches > 0 {
			out.correct = false
		}
	}

	m := zeroed(perLayer())
	out.metrics = m
	rounds := float64(len(traced.roundSecs))
	var runSecs float64
	cellSecs := map[string][]float64{}
	for _, s := range tr.spans {
		switch s.name {
		case "rt.Engine.Run":
			runSecs += (s.end - s.start).Seconds()
		case "cell":
			cellSecs[s.cat] = append(cellSecs[s.cat], (s.end - s.start).Seconds())
		}
	}
	var disp, heap, steals, prio, dem, refs, misses float64
	for _, r := range traced.last {
		disp += float64(r.Dispatch)
		heap += float64(r.HeapOps)
		steals += float64(r.Steals)
		prio += float64(r.prioUpdates)
		dem += float64(r.demotions)
		refs += float64(r.ERefs)
		misses += float64(r.EMisses)
	}
	m["machine.apply_s"] = acc.applyNs.Seconds() / rounds
	m["machine.apply_calls"] = float64(acc.applyCalls) / rounds
	m["machine.accesses"] = float64(acc.access) / rounds
	m["machine.touch_code_s"] = acc.touchNs.Seconds() / rounds
	m["machine.touch_code_calls"] = float64(acc.touchCalls) / rounds
	m["machine.advance_s"] = acc.advanceNs.Seconds() / rounds
	m["rt.run_s"] = runSecs / rounds
	m["rt.self_s"] = (runSecs - acc.machineTime().Seconds()) / rounds
	m["rt.ns_per_dispatch"] = m["rt.self_s"] * 1e9 / disp
	m["rt.dispatches"] = disp
	m["sched.heap_ops"] = heap
	m["sched.steals"] = steals
	m["sched.prio_updates"] = prio
	m["sched.demotions"] = dem
	m["cachesim.e_refs"] = refs
	m["cachesim.e_misses"] = misses
	m["cachesim.e_miss_ratio"] = misses / refs
	if b.o.workload == "fig9-grid" {
		for key, secs := range cellSecs {
			m["experiments.cell_s."+key] = mean(secs)
		}
	}
	if err := goDelta(m, g0, g1, rounds); err != nil {
		return err
	}
	u, t := median(plain.roundSecs), median(traced.roundSecs)
	m["trace.overhead_frac"] = (t - u) / u

	path := filepath.Join(b.o.root, buildDir, "traces", fmt.Sprintf("%s-seed%d.json", b.o.workload, b.o.seed))
	if err := tr.write(path); err != nil {
		return err
	}
	out.extra = append(out.extra,
		fmt.Sprintf("# %d untraced + %d traced rounds; spans written to %s", len(plain.roundSecs), len(traced.roundSecs), path),
		fmt.Sprintf("# share of rt.run_s: apply %.1f%%, touch_code %.1f%%, advance %.1f%%, rt self %.1f%%",
			100*m["machine.apply_s"]/m["rt.run_s"], 100*m["machine.touch_code_s"]/m["rt.run_s"],
			100*m["machine.advance_s"]/m["rt.run_s"], 100*m["rt.self_s"]/m["rt.run_s"]))
	return nil
}

// cpuSeconds is the CPU time this process has used, all threads.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err)) // cannot fail with RUSAGE_SELF
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}
