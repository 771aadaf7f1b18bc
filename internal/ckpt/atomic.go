// Package ckpt implements crash-safe run persistence for the
// simulator: atomic file writes (temp + fsync + rename, so a crash can
// never leave a torn artifact), a versioned CRC-checksummed container
// format, and the checkpoint payload that captures everything a
// deterministic run needs to be rebuilt and fast-forwarded — the
// workload provenance, the scheduler spec, the run options, and a
// (event-count, audit-prefix-hash) watermark.
//
// The checkpoint model exploits the repo's central invariant: a run is
// a pure function of (trace, policy, options). A checkpoint therefore
// never serializes engine or policy state; it records the inputs plus
// the watermark, and restore replays the run from the start with
// observers muted until the watermark, verifying that the replayed
// audit prefix hashes to the checkpointed value (see sched.Snapshot
// and sched.Options.Resume). A corrupt, truncated, version-skewed or
// wrong-run checkpoint is detected and rejected — never trusted.
package ckpt

import (
	"io"
	"os"
	"path/filepath"
)

// WriteAtomic writes a file via a temp-file-plus-rename dance so that
// path either keeps its previous content or holds the complete new
// content — a crash (or a failed write callback) never leaves a torn
// or half-written file behind. The temp file lives in path's directory
// (rename must not cross filesystems), is fsynced before the rename,
// and is removed on every failure path.
func WriteAtomic(path string, write func(w io.Writer) error) error {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, "."+filepath.Base(path)+".tmp-")
	if err != nil {
		return err
	}
	tmp := f.Name()
	fail := func(err error) error {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := write(f); err != nil {
		return fail(err)
	}
	if err := f.Sync(); err != nil {
		return fail(err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}

// WriteFileAtomic is WriteAtomic for a byte slice — the drop-in
// crash-safe replacement for os.WriteFile.
func WriteFileAtomic(path string, data []byte) error {
	return WriteAtomic(path, func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	})
}
