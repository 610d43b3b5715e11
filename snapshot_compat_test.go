package dehealth

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// The committed fixtures pin backward read compatibility: both were
// written from v1FixtureWorld with pruning and the approximate tier on, so
// each carries one shard index section per shard, the v1 one by the
// format-v1 writer and the v2 one by the last writer that emitted index
// sections (block metadata included). Every future reader must keep
// loading both — validating the index sections, then ignoring them — and
// answering bit-identically to a freshly prepared world. No current writer
// can regenerate them.
const (
	v1FixturePath = "testdata/v1_world.snap"
	v2FixturePath = "testdata/v2_world.snap"
)

// v1FixtureWorld prepares the world the committed fixtures were written
// from: deterministic generation, two shards.
func v1FixtureWorld() (*PreparedWorld, Options) {
	w := GenerateWorld(WorldConfig{WebMDUsers: 24, HBUsers: 24, Seed: 4242})
	split := SplitClosedWorld(w.WebMD, 0.5, 4243)
	opt := DefaultOptions()
	opt.MaxBigrams = 50
	opt.Landmarks = 5
	opt.Shards = 2
	return PrepareWorld(split.Anon, split.Aux, opt), opt
}

// checkFixtureCompat loads a committed fixture on both load paths and
// demands bit-identical answers — with and without the deprecated
// Options.Approx — against a freshly prepared copy of the same world. The
// header check guards the fixture itself: if a writer ever rewrote it at
// another version, the compat coverage would silently vanish.
func checkFixtureCompat(t *testing.T, path string, version uint16) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading committed fixture: %v (no current writer can regenerate it)", err)
	}
	if len(raw) < 8 {
		t.Fatalf("fixture is %d bytes", len(raw))
	}
	if v := binary.LittleEndian.Uint16(raw[6:]); v != version {
		t.Fatalf("%s header claims format version %d, the committed fixture must stay version %d", path, v, version)
	}

	want, opt := v1FixtureWorld()
	aopt := opt
	aopt.Approx.Enabled = true
	for _, noMmap := range []bool{false, true} {
		lw, err := LoadWorld(path, LoadOptions{NoMmap: noMmap})
		if err != nil {
			t.Fatalf("noMmap=%v: LoadWorld(%s): %v", noMmap, path, err)
		}
		la, lx := lw.Sizes()
		wa, wx := want.Sizes()
		if la != wa || lx != wx {
			t.Fatalf("noMmap=%v: restored sizes (%d, %d), want (%d, %d)", noMmap, la, lx, wa, wx)
		}
		for _, mode := range []struct {
			name string
			opt  Options
		}{{"exact", opt}, {"approx-degenerate", aopt}} {
			w, wb := worldAnswers(t, want, 5, mode.opt)
			g, gb := worldAnswers(t, lw, 5, mode.opt)
			label := fmt.Sprintf("%s noMmap=%v %s", path, noMmap, mode.name)
			sameCandidates(t, label+" lone", w, g)
			sameCandidates(t, label+" QueryBatch", wb, gb)
		}
	}
}

// TestSnapshotV1FixtureCompat loads the committed format-v1 snapshot.
func TestSnapshotV1FixtureCompat(t *testing.T) {
	checkFixtureCompat(t, v1FixturePath, 1)
}

// TestSnapshotV2FixtureCompat loads the committed format-v2 snapshot,
// whose index sections carry the block metadata v1's lack.
func TestSnapshotV2FixtureCompat(t *testing.T) {
	checkFixtureCompat(t, v2FixturePath, 2)
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
		{full, "e786a870bf0fed62be3dd6282ecbc9d0f1391abaa7822f2e52caf55315e9c33c", 480760},
		{slices[0], "e5c62975b5778d38682b7225f4af5a0eefa36f362bafab4e30ff376b5a92e825", 351424},
		{slices[1], "e1fd2d21fc2cfe38b8e01cf6b2b66d80e318041e702f946aced0a49276bcf1f6", 341312},
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
