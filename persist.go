package colarm

import (
	"bytes"
	"errors"
	"io"
	"io/fs"
	"math/rand/v2"
	"os"
	"path/filepath"
	"strconv"

	"colarm/internal/core"
	"colarm/internal/mip"
	"colarm/internal/plans"
)

// Save serializes the engine's MIP-index (dataset, closed frequent
// itemsets, bounding boxes) plus its live-ingestion state — generation
// and any buffered delta transactions — to w. The offline mining phase
// is the expensive part of Open; a saved index restores in milliseconds
// with LoadEngine, so indexes can be built once and shipped to
// query-serving processes — the preprocess-once-query-many contract
// made durable. A snapshot taken mid-ingest restores to the exact same
// answers: the delta rides along and is replayed on load.
func (e *Engine) Save(w io.Writer) error {
	rows, dels := e.eng.Delta.Snapshot()
	meta := mip.SnapshotMeta{
		Primary:    e.opts.PrimarySupport,
		Generation: e.gen,
		DeltaRows:  rows,
	}
	for _, id := range dels {
		meta.DeltaDels = append(meta.DeltaDels, int32(id))
	}
	// Advisor-built secondary indexes ride along as nested snapshots —
	// fresh ones only, since a stale secondary can never be consulted.
	// On load they restore fresh against the replayed delta, because the
	// merged surface they were mined over is byte-identical.
	primaries, indexes := e.eng.FreshSecondaryIndexes()
	for i, idx := range indexes {
		var buf bytes.Buffer
		if _, err := idx.WriteSnapshot(&buf, mip.SnapshotMeta{Primary: primaries[i]}); err != nil {
			return err
		}
		meta.Secondaries = append(meta.Secondaries, mip.SecondarySnapshot{Primary: primaries[i], Blob: buf.Bytes()})
	}
	_, err := e.eng.Index.WriteSnapshot(w, meta)
	return err
}

// SaveFile writes the index snapshot to a file. The write is
// crash-safe: the snapshot goes to a temporary file in the same
// directory, is synced to disk, and only then renamed over path, so a
// failed or interrupted save leaves the previous snapshot intact. An
// existing snapshot keeps its permission bits, a new one gets 0666 less
// the umask, as os.Create would give it, and a symlink at path is
// written through: the file it points to is replaced, not the link.
func (e *Engine) SaveFile(path string) error {
	return writeFileAtomic(path, e.Save)
}

// writeFileAtomic runs write against a temporary file beside path,
// fsyncs it and renames it over path. On any error the temporary file
// is removed and path is left untouched.
func writeFileAtomic(path string, write func(io.Writer) error) (err error) {
	if real, lerr := filepath.EvalSymlinks(path); lerr == nil {
		path = real
	}
	f, err := createBeside(path)
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			f.Close()
			os.Remove(f.Name())
		}
	}()
	if fi, serr := os.Stat(path); serr == nil {
		if err = f.Chmod(fi.Mode().Perm()); err != nil {
			return err
		}
	}
	if err = write(f); err != nil {
		return err
	}
	if err = f.Sync(); err != nil {
		return err
	}
	if err = f.Close(); err != nil {
		return err
	}
	if err = os.Rename(f.Name(), path); err != nil {
		return err
	}
	// Sync the directory so the rename itself survives a crash. Not
	// every platform can open or sync a directory; the data is already
	// durable, so a failure here is not reported.
	if d, derr := os.Open(filepath.Dir(path)); derr == nil {
		d.Sync()
		d.Close()
	}
	return nil
}

// createBeside creates a new, uniquely named file in path's directory.
// Unlike os.CreateTemp, which always uses mode 0600, it asks for 0666 so
// the umask decides the mode of a snapshot that did not exist before.
func createBeside(path string) (*os.File, error) {
	dir, base := filepath.Split(path)
	for {
		name := filepath.Join(dir, "."+base+".tmp-"+strconv.FormatUint(uint64(rand.Uint32()), 36))
		f, err := os.OpenFile(name, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o666)
		if !errors.Is(err, fs.ErrExist) {
			return f, err
		}
	}
}

// LoadEngine restores an engine from a snapshot written by Save. opts
// controls the runtime knobs only (calibration, check mode); the index
// parameters (primary support, fanout, packing), the engine generation
// and any buffered delta come from the snapshot. A snapshot of a
// different format version fails with ErrSnapshotVersion.
func LoadEngine(r io.Reader, opts Options) (*Engine, error) {
	idx, meta, err := mip.ReadSnapshot(r)
	if err != nil {
		return nil, err
	}
	return engineFromIndex(idx, meta, opts)
}

// LoadEngineFile restores an engine from a snapshot file.
func LoadEngineFile(path string, opts Options) (*Engine, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return LoadEngine(f, opts)
}

func engineFromIndex(idx *mip.Index, meta mip.SnapshotMeta, opts Options) (*Engine, error) {
	mode, err := plans.ParseCheckMode(opts.CheckMode)
	if err != nil {
		return nil, err
	}
	opts.PrimarySupport = meta.Primary
	eng := core.Assemble(idx, core.Options{
		PrimarySupport: meta.Primary,
		CalibrateUnits: opts.Calibrate,
		CheckMode:      mode,
		Workers:        opts.Workers,
		AccuracyTol:    opts.AccuracyTolerance,
		Metrics:        opts.Metrics.registry(),
		Shards:         opts.Shards,
	})
	if len(meta.DeltaRows) > 0 || len(meta.DeltaDels) > 0 {
		dels := make([]int, len(meta.DeltaDels))
		for i, id := range meta.DeltaDels {
			dels[i] = int(id)
		}
		// Replay straight into the store (through the collection on a
		// sharded engine, so the shard clocks tick): restoring persisted
		// state is not a fresh ingest, so ingest metrics stay untouched.
		if eng.Coll != nil {
			if _, err := eng.Coll.Ingest(meta.DeltaRows, dels); err != nil {
				return nil, err
			}
		} else if _, err := eng.Delta.Ingest(meta.DeltaRows, dels); err != nil {
			return nil, err
		}
	}
	// Reinstall the secondary indexes after the delta replay: they were
	// saved fresh, and the replayed store reproduces the exact merged
	// surface they were mined over, so they restore fresh too.
	for _, sec := range meta.Secondaries {
		sidx, _, err := mip.ReadSnapshot(bytes.NewReader(sec.Blob))
		if err != nil {
			return nil, err
		}
		eng.RestoreSecondary(sidx, sec.Primary)
	}
	return &Engine{
		eng:           eng,
		ds:            &Dataset{rel: idx.Dataset},
		trackAccuracy: opts.TrackAccuracy,
		opts:          opts,
		gen:           meta.Generation,
	}, nil
}
