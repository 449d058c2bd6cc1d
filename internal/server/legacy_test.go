package server

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/snapshot"
)

// The fixtures under testdata/legacy were written before snapshot
// config records left default-valued keys out: an atsimd data
// directory holding one obs-off session stopped after 3 quanta
// (s-000001.json + s-000001.snap, record app, noannot=false,
// panicat=0, scale, topology=""), and the last checkpoint of a
// RunSched cell checkpointing every 50 000 cycles (record with all
// seven experiment-driver keys).
var legacyConfig = SessionConfig{App: "tasks", Policy: "LFF", CPUs: 2, Scale: 0.05, Seed: 4242,
	Quantum: 50_000, Obs: "off"}

// copyFixture copies testdata/legacy/name into dir under its base
// name.
func copyFixture(t *testing.T, dir, name string) string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", "legacy", name))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, filepath.Base(name))
	if err := os.WriteFile(path, data, 0o600); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestLegacyDataDirResumes: a server booted over a data directory from
// before the record change resumes the session from its snapshot and
// finishes with the fingerprint of a fresh uninterrupted twin.
func TestLegacyDataDirResumes(t *testing.T) {
	dir := t.TempDir()
	copyFixture(t, dir, "s-000001.json")
	copyFixture(t, dir, "s-000001.snap")
	s, err := New(testConfig(dir))
	if err != nil {
		t.Fatalf("New over legacy dir: %v", err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	info, err := s.Get("s-000001")
	if err != nil || info.State != StateIdle || info.Boundaries != 3 || info.Config != legacyConfig {
		t.Fatalf("restored legacy session = %+v, %v; want idle at 3 boundaries with %+v", info, err, legacyConfig)
	}
	got := mustFinish(t, s, info.ID).Result.Fingerprint
	if info, _ := s.Get(info.ID); info.Resumes != 1 {
		t.Errorf("legacy session resumed %d times, want 1 (from its snapshot)", info.Resumes)
	}
	if want := controlFingerprint(t, s, legacyConfig); got != want {
		t.Errorf("resumed legacy session fingerprint %s != fresh twin %s", got, want)
	}
}

// The fixture under testdata/legacy/trace was written before engine
// events were folded into the obs digest as they are emitted: an atsimd
// data directory holding one trace-level session with 64-event rings
// (both overwritten by then), evicted after 3 quanta. Its snapshot
// stores the digest of the rings' retained windows.
var legacyTraceConfig = SessionConfig{App: "tasks", Policy: "LFF", CPUs: 2, Scale: 0.05, Seed: 4343,
	Quantum: 50_000, Obs: "trace", ObsRing: 64}

// bootLegacyTrace boots a server over a copy of the trace fixture,
// with its snapshot passed through edit when edit is non-nil.
func bootLegacyTrace(t *testing.T, edit func(*snapshot.State)) *Server {
	t.Helper()
	dir := t.TempDir()
	copyFixture(t, dir, "trace/s-000001.json")
	snap := copyFixture(t, dir, "trace/s-000001.snap")
	if edit != nil {
		st, err := snapshot.LoadFile(snap)
		if err != nil {
			t.Fatal(err)
		}
		edit(st)
		if err := st.WriteFile(snap); err != nil {
			t.Fatal(err)
		}
	}
	s, err := New(testConfig(dir))
	if err != nil {
		t.Fatalf("New over legacy trace dir: %v", err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	info, err := s.Get("s-000001")
	if err != nil || info.State != StateIdle || info.Boundaries != 3 || info.Config != legacyTraceConfig {
		t.Fatalf("restored legacy session = %+v, %v; want idle at 3 boundaries with %+v", info, err, legacyTraceConfig)
	}
	return s
}

// TestLegacyTraceSnapshotResumes: a server booted over the pre-fold
// trace-level session resumes it (its window digest is accepted at the
// cursor) and finishes with the results of a never-evicted twin. The
// fixture's digest is not the one a current run stores at the same
// boundary, so the resume really took the legacy path.
func TestLegacyTraceSnapshotResumes(t *testing.T) {
	s := bootLegacyTrace(t, nil)
	got := mustFinish(t, s, "s-000001").Result
	if info, _ := s.Get("s-000001"); info.Resumes != 1 {
		t.Errorf("legacy trace session resumed %d times, want 1 (from its snapshot)", info.Resumes)
	}
	twin := mustCreate(t, s, "", legacyTraceConfig)
	if want := mustFinish(t, s, twin.ID).Result; *got != *want {
		t.Errorf("resumed legacy trace session %+v != never-evicted twin %+v", *got, *want)
	}

	current := mustCreate(t, s, "", legacyTraceConfig)
	if _, err := s.Step(context.Background(), current.ID, 3); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Evict(context.Background(), current.ID); err != nil {
		t.Fatal(err)
	}
	st, err := s.store.loadSnapshot(current.ID)
	if err != nil || st == nil {
		t.Fatalf("snapshot of the evicted twin: %v", err)
	}
	legacy, err := snapshot.LoadFile(filepath.Join("testdata", "legacy", "trace", "s-000001.snap"))
	if err != nil {
		t.Fatal(err)
	}
	if st.Steps != legacy.Steps || st.ObsDigest == legacy.ObsDigest {
		t.Errorf("current snapshot at step %d digest %016x, fixture at step %d digest %016x: want the same step, different digests",
			st.Steps, st.ObsDigest, legacy.Steps, legacy.ObsDigest)
	}
}

// TestLegacyTraceCorruptDigestRefused: a stored obs digest matching
// neither digest is still refused with the field-level error.
func TestLegacyTraceCorruptDigestRefused(t *testing.T) {
	s := bootLegacyTrace(t, func(st *snapshot.State) { st.ObsDigest ^= 1 })
	res, err := s.Step(context.Background(), "s-000001", 0)
	if err != nil {
		t.Fatalf("step: %v", err)
	}
	if res.State != StateFailed || !strings.Contains(res.Failure, "resume verification failed") ||
		!strings.Contains(res.Failure, "snapshot: obs digest") {
		t.Errorf("corrupted legacy digest: state %q, failure %q; want failed naming the obs digest",
			res.State, firstLine(res.Failure))
	}
}

// TestLegacySnapshotMigrates: a legacy snapshot shipped by a migration
// passes the target's config cross-check, and a real mismatch still
// does not.
func TestLegacySnapshotMigrates(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "legacy", "s-000001.snap"))
	if err != nil {
		t.Fatal(err)
	}
	if err := verifySnapshotMatches(raw, legacyConfig); err != nil {
		t.Errorf("legacy snapshot refused: %v", err)
	}
	other := legacyConfig
	other.Scale = 0.06
	if err := verifySnapshotMatches(raw, other); err == nil {
		t.Error("snapshot of scale 0.05 accepted for a scale-0.06 session")
	}
}

// TestLegacyRunSchedCheckpointResumes: the legacy repro checkpoint
// resumes through RunSched and yields the uninterrupted cell's
// counters.
func TestLegacyRunSchedCheckpointResumes(t *testing.T) {
	cfg := experiments.SchedConfig{CPUs: 2, Scale: 0.05, Seed: 4242}
	want, err := experiments.RunSched("tasks", "LFF", cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.CheckpointEvery = 50_000
	cfg.CheckpointPath = copyFixture(t, t.TempDir(), "runsched-tasks-LFF-2cpu.snap")
	cfg.Resume = true
	got, err := experiments.RunSched("tasks", "LFF", cfg)
	if err != nil {
		t.Fatalf("resuming the legacy checkpoint: %v", err)
	}
	if got != want {
		t.Errorf("resumed cell %+v != uninterrupted %+v", got, want)
	}
}

// TestTopologyAliasesShareFingerprint: spellings of one topology are
// one run, so they finish with one fingerprint.
func TestTopologyAliasesShareFingerprint(t *testing.T) {
	s := newTestServer(t, nil)
	for _, tc := range []struct {
		name    string
		aliases []string
	}{
		{"private", []string{"", "private-dm", "PRIVATE-DM"}},
		{"shared", []string{"shared-llc", " Shared-LLC"}},
	} {
		fps := map[string]bool{}
		for _, topo := range tc.aliases {
			cfg := testSessionConfig(404)
			cfg.Topology = topo
			fps[controlFingerprint(t, s, cfg)] = true
		}
		if len(fps) != 1 {
			t.Errorf("%s: topologies %q finished with %d fingerprints, want 1", tc.name, tc.aliases, len(fps))
		}
	}
}

// TestSessionRecord: an obs-off session without chaos records exactly
// its spec's record; the session-only keys appear only when set.
func TestSessionRecord(t *testing.T) {
	spec, err := legacyConfig.Spec()
	if err != nil {
		t.Fatal(err)
	}
	if got := legacyConfig.record(); !reflect.DeepEqual(got, spec.Record()) {
		t.Errorf("obs-off session record %v, want the spec's %v", got, spec.Record())
	}
	cfg := legacyConfig
	cfg.PanicAtBoundary, cfg.Obs, cfg.ObsRing = 3, "trace", 64
	want := []snapshot.KV{{K: "app", V: "tasks"}, {K: "obs", V: "trace"}, {K: "obsring", V: "64"},
		{K: "panicat", V: "3"}, {K: "scale", V: "0.05"}}
	if got := cfg.record(); !reflect.DeepEqual(got, want) {
		t.Errorf("traced chaos session record %v, want %v", got, want)
	}
}
