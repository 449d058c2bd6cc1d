package runspec

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"repro/internal/cachesim"
	"repro/internal/machine"
	"repro/internal/platform/faulty"
	"repro/internal/rt"
	"repro/internal/snapshot"
)

func tasksSpec() Spec {
	return Spec{App: "tasks", Policy: "LFF", CPUs: 2, Scale: 0.05, Seed: 7}
}

func TestValidate(t *testing.T) {
	if err := tasksSpec().Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	for name, mut := range map[string]func(*Spec){
		"app":      func(s *Spec) { s.App = "nope" },
		"policy":   func(s *Spec) { s.Policy = "nope" },
		"cpus":     func(s *Spec) { s.CPUs = 300 },
		"no cpus":  func(s *Spec) { s.CPUs = 0 },
		"topology": func(s *Spec) { s.Topology = cachesim.Topology{Kind: cachesim.TopoSharedAssoc, Ways: 3} },
		"scale":    func(s *Spec) { s.Scale = 0 },
		"faults":   func(s *Spec) { s.Faults = faulty.Config{WrapBits: 2} },
	} {
		s := tasksSpec()
		mut(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("%s: invalid spec %+v accepted", name, s)
		}
	}
}

func TestMachine(t *testing.T) {
	s := tasksSpec()
	s.CPUs = 1
	if m := s.Machine(); m.CPUs != 1 || m.MissCycles != 42 {
		t.Errorf("1 CPU = %d CPUs, %d-cycle miss; want the Ultra-1", m.CPUs, m.MissCycles)
	}
	s.CPUs, s.Topology = 8, cachesim.Topology{Kind: cachesim.TopoSharedLLC}
	if m := s.Machine(); m.CPUs != 8 || m.MissCycles != 50 || m.Topology != s.Topology {
		t.Errorf("8 CPUs shared-llc = %+v; want an 8-CPU E5000 with a shared LLC", m)
	}
}

func TestKey(t *testing.T) {
	s := tasksSpec()
	if got := s.Key(); got != "tasks/LFF/2cpu" {
		t.Errorf("default key %q", got)
	}
	s.NoAnnotations, s.SpawnStacks = true, true
	s.Topology = cachesim.Topology{Kind: cachesim.TopoSharedLLC}
	s.Faults, _ = faulty.ParseSpec("all")
	if got, want := s.Key(), "tasks/LFF/2cpu/noannot/spawnstacks/shared-llc/faults"; got != want {
		t.Errorf("key %q, want %q", got, want)
	}
}

// TestRecordLeavesDefaultsOut: a default spec records only app and
// scale; each non-default option adds exactly its own key.
func TestRecordLeavesDefaultsOut(t *testing.T) {
	want := []snapshot.KV{{K: "app", V: "tasks"}, {K: "scale", V: "0.05"}}
	if got := tasksSpec().Record(); !reflect.DeepEqual(got, want) {
		t.Fatalf("default record %v, want %v", got, want)
	}
	faults, _ := faulty.ParseSpec("wrap=20")
	for key, mut := range map[string]func(*Spec){
		"faults":      func(s *Spec) { s.Faults = faults },
		"infer":       func(s *Spec) { s.Infer = true },
		"noannot":     func(s *Spec) { s.NoAnnotations = true },
		"spawnstacks": func(s *Spec) { s.SpawnStacks = true },
		"threshold":   func(s *Spec) { s.Threshold = 12 },
		"topology":    func(s *Spec) { s.Topology = cachesim.Topology{Kind: cachesim.TopoSharedFA} },
	} {
		s := tasksSpec()
		mut(&s)
		rec := s.Record()
		if len(rec) != 3 {
			t.Errorf("%s: record %v, want app, scale and %s", key, rec, key)
			continue
		}
		found := false
		for _, kv := range rec {
			found = found || kv.K == key
		}
		if !found {
			t.Errorf("%s: record %v lacks the key", key, rec)
		}
	}
}

// TestNormalizeLegacyRecords: the records written before defaults were
// left out — the experiment driver's, atsim's faults mode's and the
// soak harness's — normalise to the record of the same spec today.
func TestNormalizeLegacyRecords(t *testing.T) {
	faults, _ := faulty.ParseSpec("all")
	faulted := tasksSpec()
	faulted.Faults = faults
	shared := tasksSpec()
	shared.Topology = cachesim.Topology{Kind: cachesim.TopoSharedAssoc, Ways: 4}
	for _, tc := range []struct {
		name   string
		legacy []snapshot.KV
		spec   Spec
	}{
		{"repro cell", []snapshot.KV{{K: "app", V: "tasks"}, {K: "infer", V: "false"}, {K: "noannot", V: "false"},
			{K: "scale", V: "0.05"}, {K: "spawnstacks", V: "false"}, {K: "threshold", V: "0"}, {K: "topology", V: "private-dm"}},
			tasksSpec()},
		{"atsim faults", []snapshot.KV{{K: "app", V: "tasks"}, {K: "faults", V: faults.String()}, {K: "noannot", V: "false"},
			{K: "scale", V: "0.05"}, {K: "topology", V: "private-dm"}},
			faulted},
		{"soak", []snapshot.KV{{K: "app", V: "tasks"}, {K: "scale", V: "0.05"}, {K: "faults", V: "none"}},
			tasksSpec()},
		{"raw topology", []snapshot.KV{{K: "app", V: "tasks"}, {K: "scale", V: "0.05"}, {K: "topology", V: "SHARED-ASSOC:4"}},
			shared},
	} {
		if got, want := Normalize(tc.legacy), tc.spec.Record(); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: normalised %v, want %v", tc.name, got, want)
		}
	}
	extra := []snapshot.KV{{K: "app", V: "tasks"}, {K: "panicat", V: "0"}, {K: "scale", V: "0.05"}}
	if got := Normalize(extra, snapshot.KV{K: "panicat", V: "0"}); !reflect.DeepEqual(got, tasksSpec().Record()) {
		t.Errorf("caller default not dropped: %v", got)
	}
}

// TestBuildAndRun: the spec's fields reach the engine, setup sees it
// before the application is spawned, faults wrap the simulator only when enabled, caller
// checkpoint keys follow the record, and a bad machine or app is an
// error rather than a panic.
func TestBuildAndRun(t *testing.T) {
	var captured *snapshot.State
	s := tasksSpec()
	setupRan := false
	_, e, err := s.Run(context.Background(), rt.Options{Checkpoint: rt.CheckpointConfig{
		Every:        50_000,
		Config:       []snapshot.KV{{K: "zz", V: "1"}},
		OnCheckpoint: func(st *snapshot.State) error { captured = st; return nil },
	}}, func(_ *machine.Machine, e *rt.Engine) { setupRan = len(e.Snapshot().Threads) == 0 })
	if err != nil {
		t.Fatal(err)
	}
	if !setupRan {
		t.Error("setup did not run before the application was spawned")
	}
	if _, ok := e.Platform().(*faulty.Platform); ok {
		t.Error("fault-free spec built a faulty platform")
	}
	want := append(s.Record(), snapshot.KV{K: "zz", V: "1"})
	if captured == nil || captured.Policy != "LFF" || captured.Seed != 7 || !reflect.DeepEqual(captured.Config, want) {
		t.Fatalf("checkpoint = %+v, want policy LFF, seed 7, config %v", captured, want)
	}

	s.Faults, _ = faulty.ParseSpec("all")
	if _, e, err = s.Build(rt.Options{}); err != nil {
		t.Fatal(err)
	}
	if _, ok := e.Platform().(*faulty.Platform); !ok {
		t.Error("faulted spec built a bare platform")
	}

	s.CPUs = 300
	if _, _, err := s.Build(rt.Options{}); err == nil || !strings.Contains(err.Error(), "300 CPUs") {
		t.Errorf("300-CPU build = %v, want the machine's error", err)
	}
	s.CPUs, s.App = 2, "nope"
	if _, _, err := s.Run(context.Background(), rt.Options{}, nil); err == nil {
		t.Error("run of an unknown app succeeded")
	}
}
