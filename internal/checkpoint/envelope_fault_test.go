package checkpoint

import (
	"errors"
	"os"
	"path/filepath"
	"syscall"
	"testing"

	"crowdmax/internal/faults"
)

func mustFaultPlan(tb testing.TB, spec string) faults.Plan {
	tb.Helper()
	p, err := faults.ParsePlan(spec)
	if err != nil {
		tb.Fatalf("faults.ParsePlan(%q): %v", spec, err)
	}
	return p
}

// TestWriteFileAtomicSurvivesFaults pins the atomic-rename protocol's
// guarantees under each injected fault: a failure never publishes a
// truncated file over a good one, and a torn write that does publish is
// caught by the envelope checksum on the next open.
func TestWriteFileAtomicSurvivesFaults(t *testing.T) {
	good := SealEnvelope("TEST", 1, []byte("the previous complete artifact"))
	next := SealEnvelope("TEST", 1, []byte("the next artifact, longer than before"))

	t.Run("enospc keeps previous file", func(t *testing.T) {
		dir := t.TempDir()
		path := filepath.Join(dir, "a.bin")
		if err := WriteFileAtomic(path, good, 0o644); err != nil {
			t.Fatal(err)
		}
		in := faults.NewInjector(faults.OS(), mustFaultPlan(t, "enospc:0.5"))
		if err := WriteFileAtomicFS(in, path, next, 0o644); !errors.Is(err, syscall.ENOSPC) {
			t.Fatalf("want ENOSPC, got %v", err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if _, v, err := OpenEnvelopeAny("TEST", data); err != nil || v != 1 {
			t.Fatalf("previous file damaged by failed write: %v", err)
		}
	})

	t.Run("failed rename leaves no temp behind", func(t *testing.T) {
		dir := t.TempDir()
		in := faults.NewInjector(faults.OS(), mustFaultPlan(t, "renamefail"))
		err := WriteFileAtomicFS(in, filepath.Join(dir, "a.bin"), next, 0o644)
		if !errors.Is(err, syscall.EIO) {
			t.Fatalf("want EIO, got %v", err)
		}
		ents, _ := os.ReadDir(dir)
		if len(ents) != 0 {
			t.Fatalf("directory not clean after failed rename: %v", ents)
		}
	})

	t.Run("torn write fails closed on open", func(t *testing.T) {
		dir := t.TempDir()
		path := filepath.Join(dir, "a.bin")
		in := faults.NewInjector(faults.OS(), mustFaultPlan(t, "torn:0.5"))
		if err := WriteFileAtomicFS(in, path, next, 0o644); err != nil {
			t.Fatalf("torn write should report success: %v", err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := OpenEnvelopeAny("TEST", data); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("torn file must open as ErrCorrupt, got %v", err)
		}
	})

	t.Run("create failure surfaces", func(t *testing.T) {
		dir := t.TempDir()
		in := faults.NewInjector(faults.OS(), mustFaultPlan(t, "eio-create"))
		if err := WriteFileAtomicFS(in, filepath.Join(dir, "a.bin"), next, 0o644); !errors.Is(err, syscall.EIO) {
			t.Fatalf("want EIO, got %v", err)
		}
	})
}

// TestSaveLoadFSUnderFaults drives the snapshot codec itself through the
// injectable filesystem: a torn save fails closed as ErrCorrupt on load, a
// read fault surfaces as EIO, and a clean retry over the same injector
// (past its fault window) round-trips.
func TestSaveLoadFSUnderFaults(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "s.ck")
	in := faults.NewInjector(faults.OS(), mustFaultPlan(t, "torn@0-1,eio-read@0-1"))

	st := sampleState()
	if err := SaveFS(in, path, st); err != nil {
		t.Fatalf("torn save should report success: %v", err)
	}
	if _, err := LoadFS(in, path); !errors.Is(err, syscall.EIO) {
		t.Fatalf("first load should hit the read fault, got %v", err)
	}
	if _, err := LoadFS(in, path); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("torn snapshot must load as ErrCorrupt, got %v", err)
	}
	if err := SaveFS(in, path, st); err != nil {
		t.Fatalf("clean save: %v", err)
	}
	got, err := LoadFS(in, path)
	if err != nil {
		t.Fatalf("clean load: %v", err)
	}
	if got.Seed != st.Seed || got.NItems != st.NItems {
		t.Fatalf("round trip mismatch: %+v vs %+v", got, st)
	}
}
