// Package runspec describes one run of the paper's Section 5
// evaluation — an application under a scheduling policy on one of the
// paper's platforms — and builds its engine. atsim's flags, the
// experiment driver's cells, atsimd sessions and the soak harness all
// produce a Spec, so the platform mapping, the cell key, the snapshot
// config record and the engine assembly each exist once: equal specs
// build equal engines whose checkpoints resume one another.
package runspec

import (
	"context"
	"errors"
	"fmt"
	"os"
	"slices"
	"strconv"
	"strings"

	"repro/internal/cachesim"
	"repro/internal/machine"
	"repro/internal/model"
	"repro/internal/platform"
	"repro/internal/platform/faulty"
	"repro/internal/platform/sim"
	"repro/internal/rt"
	"repro/internal/snapshot"
	"repro/internal/workloads"
)

// Spec is one run. The zero values of Topology and of every field
// after Seed are the paper's defaults.
type Spec struct {
	// App names the workload (tasks, merge, photo, tsp).
	App string
	// Policy is the scheduling policy (FCFS, LFF, CRT, ...).
	Policy string
	// CPUs selects the platform: 1 = Ultra-1 (42-cycle miss), >1 =
	// Enterprise 5000 (50/80-cycle miss).
	CPUs int
	// Topology is the cache organisation; the zero value is the
	// paper's private direct-mapped hierarchy.
	Topology cachesim.Topology
	// Scale shrinks the workload; 1.0 is the paper's Table 4.
	Scale float64
	// Seed fixes all run randomness.
	Seed uint64
	// NoAnnotations runs the annotation ablation.
	NoAnnotations bool
	// Infer replaces user annotations with runtime sharing inference.
	Infer bool
	// Threshold overrides the heap demotion threshold in lines (0 =
	// the runtime default).
	Threshold float64
	// SpawnStacks enables the work-first spawn-stack ablation.
	SpawnStacks bool
	// Faults is the counter-fault injection schedule; a disabled one
	// runs on the bare simulator.
	Faults faulty.Config
}

// Validate rejects a spec before any work is done, so a bad value
// fails as one error instead of deep inside a run.
func (s Spec) Validate() error {
	if _, err := workloads.SchedAppByName(s.App); err != nil {
		return err
	}
	if _, err := model.SchemeFor(s.Policy); err != nil {
		return err
	}
	if err := s.Machine().Validate(); err != nil {
		return err
	}
	if s.Scale <= 0 {
		return fmt.Errorf("scale %v must be positive", s.Scale)
	}
	return s.Faults.Validate()
}

// Machine maps the CPU count and topology to the paper's platforms.
func (s Spec) Machine() machine.Config {
	cfg := machine.UltraSPARC1()
	if s.CPUs != 1 {
		cfg = machine.Enterprise5000(s.CPUs)
	}
	cfg.Topology = s.Topology
	return cfg
}

// Key names the run: the observer cell key and the stem of a
// checkpoint directory's snapshot file. It is a pure function of the
// spec (obs.Cell.Key documents why).
func (s Spec) Key() string {
	key := fmt.Sprintf("%s/%s/%dcpu", s.App, s.Policy, s.CPUs)
	if s.NoAnnotations {
		key += "/noannot"
	}
	if s.Infer {
		key += "/infer"
	}
	if s.SpawnStacks {
		key += "/spawnstacks"
	}
	if s.Topology.Shared() {
		key += "/" + s.Topology.String()
	}
	if s.Faults.Enabled() {
		key += "/faults"
	}
	return key
}

// defaults are the optional record keys at their default values;
// Record leaves them out.
var defaults = []snapshot.KV{
	{K: "faults", V: "none"},
	{K: "infer", V: "false"},
	{K: "noannot", V: "false"},
	{K: "spawnstacks", V: "false"},
	{K: "threshold", V: "0"},
	{K: "topology", V: "private-dm"},
}

// Record is the snapshot config record: the run parameters the engine
// cannot verify itself (it checks policy, CPU count, cache size and
// seed natively), so a checkpoint can never resume a different
// application, scale, ablation, topology or fault schedule. Keys at
// their default value are left out.
func (s Spec) Record() []snapshot.KV {
	return Normalize([]snapshot.KV{
		{K: "app", V: s.App},
		{K: "faults", V: s.Faults.String()},
		{K: "infer", V: strconv.FormatBool(s.Infer)},
		{K: "noannot", V: strconv.FormatBool(s.NoAnnotations)},
		{K: "scale", V: strconv.FormatFloat(s.Scale, 'g', -1, 64)},
		{K: "spawnstacks", V: strconv.FormatBool(s.SpawnStacks)},
		{K: "threshold", V: strconv.FormatFloat(s.Threshold, 'g', -1, 64)},
		{K: "topology", V: s.Topology.String()},
	})
}

// Normalize brings a config record into the form Record writes, sorted
// by key: a topology is rewritten in its canonical spelling, and every
// key holding its default value — Record's optional keys, plus the
// caller's own in extra — is dropped. Records written before defaults
// were left out resume through it.
func Normalize(rec []snapshot.KV, extra ...snapshot.KV) []snapshot.KV {
	out := make([]snapshot.KV, 0, len(rec))
	for _, kv := range rec {
		if kv.K == "topology" {
			if topo, err := cachesim.ParseTopology(kv.V); err == nil {
				kv.V = topo.String()
			}
		}
		if !slices.Contains(defaults, kv) && !slices.Contains(extra, kv) {
			out = append(out, kv)
		}
	}
	slices.SortFunc(out, func(a, b snapshot.KV) int { return strings.Compare(a.K, b.K) })
	return out
}

// LoadResume loads the snapshot at path with its config record
// normalised. A missing file is (nil, nil): a fresh start, which is
// what lets an interrupted sweep or a restarted soak loop resume every
// run that got as far as its first boundary.
func LoadResume(path string) (*snapshot.State, error) {
	st, err := snapshot.LoadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	st.Config = Normalize(st.Config)
	return st, nil
}

// Build assembles the run's engine: machine → sim → faulty (only when
// faults are on) → engine. opts carries what the spec does not
// describe (observer, checkpoint schedule, watchdog, ...); Build fills
// in the policy, seed, annotation, inference, threshold and spawn-stack
// fields, and puts Record ahead of any caller-specific keys in
// opts.Checkpoint.Config. The application is not spawned (see Run).
func (s Spec) Build(opts rt.Options) (*machine.Machine, *rt.Engine, error) {
	mcfg := s.Machine()
	if err := mcfg.Validate(); err != nil {
		return nil, nil, err
	}
	m := machine.New(mcfg)
	var plat platform.Platform = sim.New(m)
	if s.Faults.Enabled() {
		f, err := faulty.New(plat, s.Faults)
		if err != nil {
			return nil, nil, err
		}
		plat = f
	}
	opts.Policy, opts.Seed = s.Policy, s.Seed
	opts.DisableAnnotations, opts.InferSharing = s.NoAnnotations, s.Infer
	opts.ThresholdLines, opts.SpawnStacks = s.Threshold, s.SpawnStacks
	opts.Checkpoint.Config = append(s.Record(), opts.Checkpoint.Config...)
	e, err := rt.New(plat, opts)
	if err != nil {
		return nil, nil, err
	}
	return m, e, nil
}

// Run builds the engine (see Build), lets setup — when non-nil — hook
// it before the application is spawned, spawns the application at the
// spec's scale and runs it to completion under ctx. The machine and
// engine come back with Run's error, so a caller can read an
// interrupted run too.
func (s Spec) Run(ctx context.Context, opts rt.Options, setup func(*machine.Machine, *rt.Engine)) (*machine.Machine, *rt.Engine, error) {
	app, err := workloads.SchedAppByName(s.App)
	if err != nil {
		return nil, nil, err
	}
	m, e, err := s.Build(opts)
	if err != nil {
		return nil, nil, err
	}
	if setup != nil {
		setup(m, e)
	}
	app.Spawn(e, s.Scale)
	return m, e, e.Run(ctx)
}
