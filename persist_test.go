package colarm

import (
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	eng := salaryEngine(t)
	var buf bytes.Buffer
	if err := eng.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadEngine(&buf, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if loaded.NumPartitions() != eng.NumPartitions() {
		t.Fatalf("partitions %d != %d", loaded.NumPartitions(), eng.NumPartitions())
	}
	// Identical query answers.
	q := Query{
		Range:          map[string][]string{"Location": {"Seattle"}, "Gender": {"F"}},
		ItemAttributes: []string{"Age", "Salary"},
		MinSupport:     0.70,
		MinConfidence:  0.95,
		Plan:           SSEUV,
	}
	a, err := eng.Mine(q)
	if err != nil {
		t.Fatal(err)
	}
	b, err := loaded.Mine(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Rules) != len(b.Rules) {
		t.Fatalf("rules %d != %d after reload", len(a.Rules), len(b.Rules))
	}
	for i := range a.Rules {
		if a.Rules[i].String() != b.Rules[i].String() {
			t.Fatalf("rule %d differs after reload", i)
		}
	}
	// The query language works on the restored engine too.
	if _, err := loaded.MineQL(`REPORT LOCALIZED ASSOCIATION RULES FROM salary
		HAVING minsupport = 0.45 AND minconfidence = 0.8`); err != nil {
		t.Fatal(err)
	}
}

func TestSaveLoadFile(t *testing.T) {
	eng := salaryEngine(t)
	path := filepath.Join(t.TempDir(), "salary.colarm")
	if err := eng.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadEngineFile(path, Options{CheckMode: "scan"})
	if err != nil {
		t.Fatal(err)
	}
	if loaded.NumPartitions() != eng.NumPartitions() {
		t.Error("partitions lost through file round trip")
	}
	if _, err := LoadEngineFile(filepath.Join(t.TempDir(), "missing"), Options{}); err == nil {
		t.Error("missing file must error")
	}
}

// TestSaveFileFailureKeepsPreviousSnapshot pins the crash-safety of
// SaveFile: a save that fails mid-write must leave the previous snapshot
// byte-identical and loadable, and leave no temporary file behind.
func TestSaveFileFailureKeepsPreviousSnapshot(t *testing.T) {
	eng := salaryEngine(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "salary.colarm")
	if err := eng.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	errDiskFull := errors.New("disk full")
	err = writeFileAtomic(path, func(w io.Writer) error {
		var buf bytes.Buffer
		if err := eng.Save(&buf); err != nil {
			return err
		}
		if _, err := w.Write(buf.Bytes()[:buf.Len()/2]); err != nil {
			return err
		}
		return errDiskFull
	})
	if !errors.Is(err, errDiskFull) {
		t.Fatalf("failed save returned %v, want the write error", err)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after, before) {
		t.Fatal("a failed save changed the previous snapshot")
	}
	if _, err := LoadEngineFile(path, Options{}); err != nil {
		t.Fatalf("previous snapshot no longer loads: %v", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("directory holds %d entries after a failed save, want only the snapshot", len(entries))
	}
}

// TestSaveFileKeepsModeAndLinks pins what SaveFile's rename must not
// change: an existing snapshot's permission bits, the umask-derived mode
// os.Create gives a new file, and a symlink at the target path, which is
// written through rather than replaced.
func TestSaveFileKeepsModeAndLinks(t *testing.T) {
	eng := salaryEngine(t)
	dir := t.TempDir()

	// A new snapshot gets the mode os.Create gives a new file here.
	ref, err := os.Create(filepath.Join(dir, "ref"))
	if err != nil {
		t.Fatal(err)
	}
	ref.Close()
	fresh := filepath.Join(dir, "fresh.colarm")
	if err := eng.SaveFile(fresh); err != nil {
		t.Fatal(err)
	}
	if got, want := fileMode(t, fresh), fileMode(t, ref.Name()); got != want {
		t.Errorf("new snapshot has mode %v, os.Create gives %v", got, want)
	}

	// A snapshot restricted to its owner stays so across saves.
	private := filepath.Join(dir, "private.colarm")
	if err := eng.SaveFile(private); err != nil {
		t.Fatal(err)
	}
	if err := os.Chmod(private, 0o600); err != nil {
		t.Fatal(err)
	}
	if err := eng.SaveFile(private); err != nil {
		t.Fatal(err)
	}
	if got := fileMode(t, private); got != 0o600 {
		t.Errorf("restricted snapshot has mode %v after a save, want -rw-------", got)
	}

	// A symlinked target stays a symlink and its file gets the snapshot.
	link := filepath.Join(dir, "link.colarm")
	if err := os.Symlink(private, link); err != nil {
		t.Skipf("no symlinks here: %v", err)
	}
	if err := os.WriteFile(private, []byte("old"), 0o600); err != nil {
		t.Fatal(err)
	}
	if err := eng.SaveFile(link); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Lstat(link); err != nil || fi.Mode()&fs.ModeSymlink == 0 {
		t.Fatalf("save through a symlink replaced the link (%v)", err)
	}
	if _, err := LoadEngineFile(private, Options{}); err != nil {
		t.Fatalf("linked file does not hold the new snapshot: %v", err)
	}
}

func fileMode(t *testing.T, path string) fs.FileMode {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return fi.Mode().Perm()
}

func TestLoadEngineErrors(t *testing.T) {
	if _, err := LoadEngine(strings.NewReader("junk"), Options{}); err == nil {
		t.Error("junk stream must error")
	}
	eng := salaryEngine(t)
	var buf bytes.Buffer
	if err := eng.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadEngine(&buf, Options{CheckMode: "bogus"}); err == nil {
		t.Error("bogus check mode must error")
	}
}

// TestSaveLoadWithDelta proves a snapshot taken mid-ingest restores to
// the exact same answers: the buffered delta and the generation ride
// along in the v2 format's metadata.
func TestSaveLoadWithDelta(t *testing.T) {
	eng := salaryEngine(t)
	rec := map[string]string{}
	for _, a := range eng.Dataset().Attributes() {
		vals, _ := eng.Dataset().Values(a)
		rec[a] = vals[len(vals)-1]
	}
	if _, err := eng.Ingest([]map[string]string{rec, rec}, []int{1}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := eng.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadEngine(&buf, Options{})
	if err != nil {
		t.Fatal(err)
	}
	a, b := eng.Staleness(), loaded.Staleness()
	if a.BufferedRows != b.BufferedRows || a.Tombstones != b.Tombstones || a.Generation != b.Generation {
		t.Fatalf("staleness lost in round trip: saved %+v, loaded %+v", a, b)
	}
	q := Query{MinSupport: 0.3, MinConfidence: 0.8}
	ra, err := eng.Mine(q)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := loaded.Mine(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(ra.Rules) != len(rb.Rules) {
		t.Fatalf("rules %d != %d after mid-ingest reload", len(ra.Rules), len(rb.Rules))
	}
	for i := range ra.Rules {
		if ra.Rules[i].String() != rb.Rules[i].String() {
			t.Fatalf("rule %d differs after mid-ingest reload", i)
		}
	}
	// The restored engine keeps the rebuild lineage: generation survives
	// a rebuild → save → load cycle.
	rebuilt, err := loaded.Rebuild(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := rebuilt.Save(&buf); err != nil {
		t.Fatal(err)
	}
	again, err := LoadEngine(&buf, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if again.Generation() != rebuilt.Generation() || again.Generation() != 1 {
		t.Fatalf("generation %d after rebuild round trip, want 1", again.Generation())
	}
}

// TestSnapshotVersionMismatch pins the typed rejection of streams that
// are not this build's snapshot format: foreign bytes and old-format
// streams fail with ErrSnapshotVersion before any payload decode.
func TestSnapshotVersionMismatch(t *testing.T) {
	if _, err := LoadEngine(strings.NewReader("COLARM-MIP-v1 but not really"), Options{}); !errors.Is(err, ErrSnapshotVersion) {
		t.Fatalf("foreign stream: got %v, want ErrSnapshotVersion", err)
	}
	// A well-formed gob stream carrying the wrong magic string.
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode("COLARM-MIP-v1"); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadEngine(&buf, Options{}); !errors.Is(err, ErrSnapshotVersion) {
		t.Fatalf("old magic: got %v, want ErrSnapshotVersion", err)
	}
}

func TestOpenCheckModeValidation(t *testing.T) {
	ds, _ := Salary()
	if _, err := Open(ds, Options{PrimarySupport: 0.18, CheckMode: "bogus"}); err == nil {
		t.Error("bogus check mode must error at Open")
	}
	if _, err := Open(ds, Options{PrimarySupport: 0.18, CheckMode: "scan"}); err != nil {
		t.Errorf("scan mode: %v", err)
	}
}
