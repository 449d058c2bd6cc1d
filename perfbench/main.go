// Command perfbench is the repository benchmark: it measures the host
// cost of the simulator, the locality runtime and the atsimd session
// service end to end, and splits that cost by layer in a separate
// traced run. Run it from the repository root through run.sh, which
// builds this program and cmd/atsimd from source:
//
//	bash perfbench/run.sh --workload fig9-grid --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object
// {"correct", "attempted", "failed", "metrics"}; the lines before it
// are the same numbers for a human reader, under the metric names the
// design below uses.
//
// # Workloads and why each was chosen
//
//   - fig9-grid: the paper's Figure 9 grid — the four Table 4 apps
//     under FCFS/LFF/CRT on the 8-CPU E5000 with the private-dm
//     topology at the reduced scale of the root BenchmarkFig9EightCPU,
//     one experiments.Fig9 call per round (what a `repro fig9` user
//     waits for), with one worker so that its cells run one at a time
//     as in the traced rounds. Most of its host time is the data-side
//     cache sweep behind Platform.Apply (about two thirds of engine
//     time); the instruction side (TouchCode) is a few percent. It is
//     the workload on which a cachesim/machine data-path change shows.
//   - fine-grain: the tasks benchmark (workloads.SpawnTasks) shrunk to
//     four lines of state per task and many wake-touch-block periods,
//     under the same three policies on 8 CPUs. Nearly all host time is
//     the engine itself (thread handoff, scheduler, model) and the
//     instruction-side TouchCode; the data sweep barely matters. It is
//     the workload on which a context-switch or TouchCode change shows,
//     and on which a data-sweep change should show nothing.
//   - sessions: real atsimd traffic over loopback HTTP from a fresh data
//     directory. The load is a CLOSED loop of two clients (never more
//     than nproc): each client waits for every reply before it sends its
//     next request. Sessions rotate through the Table 4 apps and are
//     stepped one quantum at a time; after every step the client reads
//     the session's new /obs events from its cursor. Half the sessions
//     are evicted once, at a fixed point of progress between 10% and
//     90%, and their never-evicted twins (same config and seed) must
//     finish with the same fingerprint. About 2% of all steps are
//     resumes, which replay the session from step 0: the resume share
//     is what sets op_tail_ms (the step p99), while resident steps set
//     op_p50_ms. It is the only workload that runs server, snapshot,
//     fsatomic and the resume path.
//
// # End-to-end metrics (tracing off)
//
// Every workload reports every metric, so each is defined on all three:
//
//   - setup_s: process start to ready, the median of several starts —
//     a fresh benchmark process that has built its model tables and
//     first engine (simulation workloads: one start before every round,
//     scaled to the reference host speed like the round times), or a
//     fresh atsimd answering /readyz (sessions).
//   - peak_rss_mb: peak resident set of the simulating process (this
//     process; atsimd for sessions) over one round (over each second
//     for sessions), the median over the run. The peak of a whole run
//     is one extreme sample that swings with garbage-collection timing;
//     the per-round peak repeats.
//   - sim_minstr_per_s: simulated instructions per host second — the
//     median over rounds, per CPU second, for the simulation workloads,
//     and the instructions of every finished session over the wall time
//     for sessions.
//   - op_p50_ms, op_tail_ms: latency of the unit a user waits on, at
//     the median and in the tail. For sessions the unit is one step
//     request and these are the step_p50_ms and step_p99_ms of the
//     design (a run holds thousands of steps). For the simulation
//     workloads the unit is one round (one Figure 9 grid; one fine-grain
//     run of all three policies); a 30-second run holds about 50, so
//     their tail is p80, the highest percentile with ten rounds beyond
//     it, where p99 would be the single slowest round.
//
// The simulation workloads time their rounds in CPU time of this
// process (all threads, so garbage collection counts): the engine runs
// one simulated thread at a time, so a round's CPU time is its latency
// on an idle host, and it leaves out the time a shared host takes away
// — hypervisor steal, and waits for a descheduled vCPU during the
// engine's goroutine handoff — which swings wall time by 20–60% in
// phases longer than a run. CPU time still swings by up to 2x while a
// neighbour on the host contends for caches and memory, so these times
// and sim_minstr_per_s are also scaled to a reference host speed,
// measured by a fixed kernel run before every round (hostref.go). The
// unscaled CPU and wall-clock values are printed beside them. Sessions
// time steps in wall time, as a client sees them, scaled the same way
// by the kernel run once a second while the clients pause; the unscaled
// values and the share of CPU time the hypervisor stole are printed
// with them. setup_s is wall time everywhere, scaled as above on the
// simulation workloads. The per-layer times of the traced run are wall
// time, not scaled.
//
// Failures are the result line's attempted/failed pair (failed_frac =
// failed/attempted): every grid cell, engine run, HTTP operation and
// session counts as attempted; 429/503 answers, transport and deadline
// errors and sessions ending failed count as failed, and each retry is
// a further attempt. The human-readable lines also print failed_frac,
// sessions_per_s and obs_read_p50_ms/obs_read_p99_ms.
//
// # Per-layer metrics (traced run) and what each should move
//
// The traced run times each layer from outside, through public
// functions only: a timing wrapper around platform/sim passed to
// rt.New, rt.Engine.Run and Snapshot, the experiments cell, the Go
// runtime/metrics, and atsimd's HTTP API and /metrics. Simulated
// counts are per round (one grid, one fine-grain round) and must
// repeat exactly; a speed-only change must not move them.
//
//	layer metric                          end-to-end metric it should move
//	machine.apply_s/_calls, .accesses     sim_minstr_per_s on fig9-grid; ~nothing on fine-grain
//	machine.touch_code_s/_calls           sim_minstr_per_s on fine-grain; ~nothing on fig9-grid
//	machine.advance_s                     both simulation workloads, a small share
//	rt.run_s, rt.self_s, rt.ns_per_dispatch
//	                                      sim_minstr_per_s on fine-grain most, fig9-grid less;
//	                                      op_p50_ms on sessions
//	rt.dispatches, sched.*, cachesim.e_*  none (simulated counts, must not move)
//	experiments.cell_s.<app>.<policy>     which fig9-grid cell a change sped up
//	go.gc_cpu_s, go.alloc_mb, go.allocs   peak_rss_mb
//	go.sched_latency_p99_us               peak_rss_mb; sim_minstr_per_s on fine-grain (handoff)
//	server.*, http.step_overhead_ms       op_p50_ms and op_tail_ms on sessions
//	resume.at10_ms/at50_ms/at90_ms        op_tail_ms and sessions_per_s on sessions only
//	obs.read_bytes, obs.read_p50/p99_ms   obs_read_p50_ms/obs_read_p99_ms on sessions
//	trace.overhead_frac                   (traced − untraced) / untraced, per workload
//
// rt.self_s is rt.run_s minus the machine.* time: the runtime,
// scheduler, model, thread bodies and the goroutine handoff. A layer a
// workload does not run in this process reads 0 there: the machine,
// rt, sched, cachesim and go metrics on sessions (the engines run
// inside atsimd), and the server, http, resume and obs metrics on the
// simulation workloads.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// defaultSeed is the seed whose simulated counters are pinned by the
// digests in digest.go.
const defaultSeed = 1

// buildDir holds everything the benchmark writes, relative to the
// checkout root (run.sh builds into it too).
const buildDir = ".bench_build"

type metricDef struct{ name, unit string }

// endToEnd is the end-to-end metric set every untraced run reports.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"sim_minstr_per_s", "Minstr/s"},
	{"op_p50_ms", "ms"},
	{"op_tail_ms", "ms"},
}

// cellApps and cellPolicies span the Figure 9 grid, in Fig9's order.
var (
	cellApps     = []string{"tasks", "merge", "photo", "tsp"}
	cellPolicies = []string{"FCFS", "LFF", "CRT"}
)

// perLayer is the metric set every traced run reports.
func perLayer() []metricDef {
	defs := []metricDef{
		{"machine.apply_s", "s"},
		{"machine.apply_calls", "count"},
		{"machine.accesses", "count"},
		{"machine.touch_code_s", "s"},
		{"machine.touch_code_calls", "count"},
		{"machine.advance_s", "s"},
		{"rt.run_s", "s"},
		{"rt.self_s", "s"},
		{"rt.ns_per_dispatch", "ns"},
		{"rt.dispatches", "count"},
		{"sched.heap_ops", "count"},
		{"sched.steals", "count"},
		{"sched.prio_updates", "count"},
		{"sched.demotions", "count"},
		{"cachesim.e_refs", "count"},
		{"cachesim.e_misses", "count"},
		{"cachesim.e_miss_ratio", "ratio"},
	}
	for _, app := range cellApps {
		for _, pol := range cellPolicies {
			defs = append(defs, metricDef{"experiments.cell_s." + app + "." + pol, "s"})
		}
	}
	return append(defs,
		metricDef{"go.gc_cpu_s", "s"},
		metricDef{"go.alloc_mb", "MB"},
		metricDef{"go.allocs", "count"},
		metricDef{"go.sched_latency_p99_us", "us"},
		metricDef{"server.step_mean_ms", "ms"},
		metricDef{"server.admission_wait_ms", "ms"},
		metricDef{"server.snapshot_write_ms", "ms"},
		metricDef{"server.snapshot_writes", "count/session"},
		metricDef{"server.eviction_ms", "ms"},
		metricDef{"server.evictions", "count/session"},
		metricDef{"server.resumes", "count/session"},
		metricDef{"server.boundaries", "count/session"},
		metricDef{"server.sessions_per_s", "1/s"},
		metricDef{"http.step_overhead_ms", "ms"},
		metricDef{"resume.at10_ms", "ms"},
		metricDef{"resume.at50_ms", "ms"},
		metricDef{"resume.at90_ms", "ms"},
		metricDef{"obs.read_bytes", "bytes"},
		metricDef{"obs.read_p50_ms", "ms"},
		metricDef{"obs.read_p99_ms", "ms"},
		metricDef{"trace.overhead_frac", "frac"},
	)
}

// opts is one benchmark invocation.
type opts struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	root     string // checkout root; everything written lives under root/buildDir
}

// outcome is what a workload run hands back to main.
type outcome struct {
	correct   bool
	attempted int64
	failed    int64
	metrics   map[string]float64
	// extra are human-only lines (design-name aliases, failed_frac).
	extra []string
}

func main() {
	if len(os.Args) == 3 && os.Args[1] == "-setup-probe" {
		setupProbe(os.Args[2])
		return
	}
	if len(os.Args) == 2 && os.Args[1] == "-host-ref" {
		hostRefChild()
		return
	}
	var (
		o     opts
		trace int
	)
	flag.StringVar(&o.workload, "workload", "", "fig9-grid, fine-grain or sessions")
	flag.Uint64Var(&o.seed, "seed", defaultSeed, "workload seed; every generated config derives from it")
	flag.Float64Var(&o.seconds, "seconds", 30, "measured host seconds")
	flag.IntVar(&trace, "trace", 0, "1 = traced run printing per-layer metrics")
	flag.Parse()
	if flag.NArg() > 0 || trace < 0 || trace > 1 || o.seconds <= 0 {
		flag.Usage()
		os.Exit(2)
	}
	o.trace = trace == 1
	root, err := os.Getwd()
	if err != nil {
		fatalf("%v", err)
	}
	o.root = root
	want, err := declaredMetrics(filepath.Join(root, "BENCHMARK.json"), o.trace)
	if err != nil {
		fatalf("%v", err)
	}

	var out outcome
	switch o.workload {
	case "fig9-grid", "fine-grain":
		out, err = runSim(o)
	case "sessions":
		out, err = runSessions(o)
	default:
		fatalf("unknown workload %q (want fig9-grid, fine-grain or sessions)", o.workload)
	}
	if err != nil {
		fatalf("%s: %v", o.workload, err)
	}
	if err := emit(os.Stdout, o, out, want); err != nil {
		fatalf("%v", err)
	}
}

// declaredMetrics reads the metric names BENCHMARK.json promises for
// this kind of run and checks this program defines exactly those.
func declaredMetrics(path string, traced bool) ([]metricDef, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bj struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	declared, defs := bj.EndToEnd, endToEnd
	if traced {
		declared, defs = bj.PerLayer, perLayer()
	}
	if len(declared) != len(defs) {
		return nil, fmt.Errorf("%s declares %d metrics, the benchmark defines %d", path, len(declared), len(defs))
	}
	for i, d := range declared {
		if d.Name != defs[i].name || d.Unit != defs[i].unit {
			return nil, fmt.Errorf("%s metric %d is %s [%s], the benchmark defines %s [%s]",
				path, i, d.Name, d.Unit, defs[i].name, defs[i].unit)
		}
	}
	return defs, nil
}

// emit prints the human-readable lines, then the result object as the
// last line.
func emit(w io.Writer, o opts, out outcome, defs []metricDef) error {
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	res := struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{out.correct, out.attempted, out.failed, map[string]metric{}}
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# %s seed=%d seconds=%g trace=%v\n", o.workload, o.seed, o.seconds, o.trace)
	for _, d := range defs {
		v, ok := out.metrics[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%s: metric %s was not measured", o.workload, d.name)
		}
		res.Metrics[d.name] = metric{v, d.unit}
		fmt.Fprintf(bw, "%-34s %14.6g %s\n", d.name, v, d.unit)
	}
	for _, l := range out.extra {
		fmt.Fprintln(bw, l)
	}
	fmt.Fprintf(bw, "%-34s %14.6g frac (%d of %d)\n", "failed_frac",
		float64(out.failed)/float64(max(out.attempted, 1)), out.failed, out.attempted)
	if out.attempted < 1 {
		return fmt.Errorf("%s: nothing was attempted", o.workload)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintf(bw, "%s\n", line)
	return bw.Flush()
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(1)
}

// checkFailed reports an output check that failed; the run still
// prints its numbers, with correct=false.
func checkFailed(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: CHECK FAILED: "+format+"\n", args...)
}

// quantile returns the q-quantile of xs by linear interpolation
// between order statistics.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	xs = append([]float64(nil), xs...)
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(xs)-1)
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// resetPeakRSS restarts the peak-resident-set counter (VmHWM) of
// process pid ("self" for this process); the pages themselves are not
// touched.
func resetPeakRSS(pid string) error {
	return os.WriteFile(filepath.Join("/proc", pid, "clear_refs"), []byte("5"), 0)
}

// peakRSSMB reads the peak resident set (VmHWM) of process pid
// ("self" for this process) in MB.
func peakRSSMB(pid string) (float64, error) {
	raw, err := os.ReadFile(filepath.Join("/proc", pid, "status"))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%f kB", &kb); err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}

// splitmix derives the i-th generated seed from the workload seed;
// generated seeds are never 0 (0 selects a program default).
func splitmix(seed, i uint64) uint64 {
	z := seed + (i+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	if z == 0 {
		z = 1
	}
	return z
}

// workers is the client or worker count: two, never more than nproc.
func workers() int { return max(1, min(2, runtime.NumCPU())) }

// zeroed returns the metric map with every definition in defs set to 0:
// a layer the workload does not run in this process reads 0.
func zeroed(defs []metricDef) map[string]float64 {
	m := make(map[string]float64, len(defs))
	for _, d := range defs {
		m[d.name] = 0
	}
	return m
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
