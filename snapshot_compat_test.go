package dehealth

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// v1FixturePath is a committed snapshot written by the format-v1 code
// before the v2 (block-max metadata) bump. It exists to pin backward read
// compatibility: every future reader must keep loading it and answering
// bit-identically to a freshly prepared world, with the missing block
// metadata rebuilt on load.
const v1FixturePath = "testdata/v1_world.snap"

// v1FixtureWorld prepares the exact world the committed v1 fixture was
// written from: deterministic generation, two shards, pruning and the
// approximate tier both on (so the file carries shard index sections).
func v1FixtureWorld() (*PreparedWorld, Options) {
	w := GenerateWorld(WorldConfig{WebMDUsers: 24, HBUsers: 24, Seed: 4242})
	split := SplitClosedWorld(w.WebMD, 0.5, 4243)
	opt := DefaultOptions()
	opt.MaxBigrams = 50
	opt.Landmarks = 5
	opt.Shards = 2
	opt.Prune = true
	opt.Approx = ApproxConfig{Enabled: true}
	return PrepareWorld(split.Anon, split.Aux, opt), opt
}

// TestWriteSnapshotFixture regenerates the committed fixture. It is
// deliberately env-guarded: the point of the file is that it was written
// by the *old* format version, so regenerating it under a newer writer
// would destroy exactly what TestSnapshotV1FixtureCompat pins.
func TestWriteSnapshotFixture(t *testing.T) {
	if os.Getenv("DEHEALTH_WRITE_FIXTURE") == "" {
		t.Skip("set DEHEALTH_WRITE_FIXTURE=1 to (re)write testdata fixtures")
	}
	pw, _ := v1FixtureWorld()
	if err := os.MkdirAll("testdata", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := pw.Snapshot(v1FixturePath); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
}

// TestSnapshotV1FixtureCompat loads the committed format-v1 snapshot and
// demands bit-identical answers — exact and approximate (theta 1,
// unbounded budget) — against a freshly prepared copy of the same world.
// The header check guards the fixture itself: if a writer ever rewrote it
// at a newer version, the compat coverage would silently vanish.
func TestSnapshotV1FixtureCompat(t *testing.T) {
	raw, err := os.ReadFile(v1FixturePath)
	if err != nil {
		t.Fatalf("reading committed fixture: %v (regenerate only with a format-v1 writer)", err)
	}
	if len(raw) < 8 {
		t.Fatalf("fixture is %d bytes", len(raw))
	}
	if v := binary.LittleEndian.Uint16(raw[6:]); v != 1 {
		t.Fatalf("fixture header claims format version %d, the committed fixture must stay version 1", v)
	}

	want, opt := v1FixtureWorld()
	for _, noMmap := range []bool{false, true} {
		lw, err := LoadWorld(v1FixturePath, LoadOptions{NoMmap: noMmap})
		if err != nil {
			t.Fatalf("noMmap=%v: LoadWorld(v1 fixture): %v", noMmap, err)
		}
		la, lx := lw.Sizes()
		wa, wx := want.Sizes()
		if la != wa || lx != wx {
			t.Fatalf("noMmap=%v: restored sizes (%d, %d), want (%d, %d)", noMmap, la, lx, wa, wx)
		}
		aopt := opt
		aopt.Approx.Enabled = true
		for u := 0; u < la; u++ {
			for _, mode := range []struct {
				name string
				opt  Options
			}{{"exact", opt}, {"approx-degenerate", aopt}} {
				w, err := want.QueryUser(u, 5, mode.opt)
				if err != nil {
					t.Fatalf("fresh QueryUser(%d) %s: %v", u, mode.name, err)
				}
				g, err := lw.QueryUser(u, 5, mode.opt)
				if err != nil {
					t.Fatalf("restored QueryUser(%d) %s: %v", u, mode.name, err)
				}
				if len(w) != len(g) {
					t.Fatalf("noMmap=%v user %d %s: %d candidates, want %d", noMmap, u, mode.name, len(g), len(w))
				}
				for i := range w {
					if w[i] != g[i] {
						t.Fatalf("noMmap=%v user %d %s candidate %d: got %+v, want %+v",
							noMmap, u, mode.name, i, g[i], w[i])
					}
				}
			}
		}
	}
}

// TestSnapshotGoldenBytes pins the current format's bytes on disk: the
// SHA-256 of v1FixtureWorld's full snapshot and of its two per-shard
// slices must not move. Any change to section ids, order, element
// encodings, padding or the meta document fails here, not in a reader in
// the field. Restricted to amd64: other architectures may fuse
// multiply-adds, which can change the bits of the saved scorer caches.
func TestSnapshotGoldenBytes(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden hashes were recorded on amd64, not %s", runtime.GOARCH)
	}
	pw, _ := v1FixtureWorld()
	dir := t.TempDir()
	full := filepath.Join(dir, "world.snap")
	if err := pw.Snapshot(full); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	slices, err := pw.SnapshotSlices(filepath.Join(dir, "world"))
	if err != nil {
		t.Fatalf("SnapshotSlices: %v", err)
	}
	if len(slices) != 2 {
		t.Fatalf("%d slices, want 2", len(slices))
	}
	for _, g := range []struct {
		path, sum string
		size      int
	}{
		{full, "367ed5c9f56d82baf963f0a97a1504b4c44ec6c08505e2d38cff368bc588d24a", 503928},
		{slices[0], "18d6514c3300f0fbea80c35eaf69eb581b832481809d54313a411e575bfd0630", 362992},
		{slices[1], "463b03f019b4f1871c0d8593add9ed30f6002db3bace72439e739959e283ab68", 352960},
	} {
		b, err := os.ReadFile(g.path)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(b)
		if got := hex.EncodeToString(sum[:]); got != g.sum || len(b) != g.size {
			t.Errorf("%s: %d bytes with SHA-256 %s, want %d bytes with %s", filepath.Base(g.path), len(b), got, g.size, g.sum)
		}
	}
}
