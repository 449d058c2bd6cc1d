package main

import (
	"context"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/experiments"
	"repro/internal/rt"
	"repro/internal/runspec"
	"repro/internal/server"
	"repro/internal/snapshot"
)

// TestOneRunThreeWays: one run described by atsim's flags, by a repro
// cell and by an obs-off atsimd session is one spec, with one snapshot
// config record and one key — so a repro cell's checkpoint resumes the
// session's engine, which finishes with the uninterrupted fingerprint.
func TestOneRunThreeWays(t *testing.T) {
	const quantum = 50_000
	fromFlags, err := flagSpec("merge", "CRT", 2, "", 0.05, 99, true, "")
	if err != nil {
		t.Fatal(err)
	}
	cell := experiments.SchedConfig{CPUs: 2, Scale: 0.05, Seed: 99, DisableAnnotations: true, Topology: "private-dm"}
	fromCell, err := cell.Spec("merge", "CRT")
	if err != nil {
		t.Fatal(err)
	}
	session := server.SessionConfig{App: "merge", Policy: "CRT", CPUs: 2, Scale: 0.05, Seed: 99,
		Quantum: quantum, Topology: "PRIVATE-DM", DisableAnnotations: true, Obs: "off"}
	fromSession, err := session.Spec()
	if err != nil {
		t.Fatal(err)
	}
	for name, spec := range map[string]runspec.Spec{"repro cell": fromCell, "session": fromSession} {
		if spec != fromFlags {
			t.Errorf("%s spec %+v != atsim spec %+v", name, spec, fromFlags)
		}
		if !reflect.DeepEqual(spec.Record(), fromFlags.Record()) {
			t.Errorf("%s record %v != atsim record %v", name, spec.Record(), fromFlags.Record())
		}
		if spec.Key() != fromFlags.Key() {
			t.Errorf("%s key %q != atsim key %q", name, spec.Key(), fromFlags.Key())
		}
	}

	cell.CheckpointEvery = quantum
	cell.CheckpointPath = filepath.Join(t.TempDir(), "cell.snap")
	if _, err := experiments.RunSched("merge", "CRT", cell); err != nil {
		t.Fatal(err)
	}
	st, err := runspec.LoadResume(cell.CheckpointPath)
	if err != nil || st == nil || st.Now == 0 {
		t.Fatalf("repro cell checkpoint = %+v, %v; want a mid-run snapshot", st, err)
	}
	fingerprint := func(resume *snapshot.State) uint64 {
		t.Helper()
		_, e, err := fromSession.Run(context.Background(), rt.Options{Checkpoint: rt.CheckpointConfig{
			Every: quantum, Resume: resume, OnCheckpoint: func(*snapshot.State) error { return nil },
		}}, nil)
		if err != nil {
			t.Fatal(err)
		}
		return e.CaptureState().Fingerprint()
	}
	if got, want := fingerprint(st), fingerprint(nil); got != want {
		t.Errorf("session engine resumed from the repro checkpoint finished %016x, uninterrupted %016x", got, want)
	}
}
