// Per-shard snapshot slice tests: the SnapshotSlices → LoadWorld round
// trip that boots a distributed shard server, window-by-window bit
// identity against the full world's in-process shard fan-out, the typed
// rejections of damaged slice files, and the slice-of-slice guard.

package dehealth

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"dehealth/internal/shard"
)

// loadSlices cuts the world into per-shard slices and loads each back.
func loadSlices(t *testing.T, pw *PreparedWorld, dir string) []*PreparedWorld {
	t.Helper()
	paths, err := pw.SnapshotSlices(filepath.Join(dir, "world"))
	if err != nil {
		t.Fatalf("SnapshotSlices: %v", err)
	}
	worlds := make([]*PreparedWorld, len(paths))
	for i, p := range paths {
		if worlds[i], err = LoadWorld(p, LoadOptions{}); err != nil {
			t.Fatalf("LoadWorld(%s): %v", p, err)
		}
	}
	return worlds
}

// TestSliceRoundTrip: each loaded slice reports its window, carries the
// full anonymized side over its own auxiliary partition, and answers its
// window bit-identically to the full world — merging every slice's
// (rebased) answer under the global order reproduces the full world's
// answer exactly.
func TestSliceRoundTrip(t *testing.T) {
	pw, opt := snapWorld(t, 20, 7000, 3)
	slices := loadSlices(t, pw, t.TempDir())
	if len(slices) != 3 {
		t.Fatalf("%d slices, want 3", len(slices))
	}

	anonWant, auxWant := pw.Sizes()
	coverage := 0
	for i, sw := range slices {
		info, ok := sw.SliceInfo()
		if !ok {
			t.Fatalf("slice %d lost its SliceInfo", i)
		}
		if info.Shard != i || info.Shards != 3 || info.AuxTotal != auxWant {
			t.Fatalf("slice %d identity %+v", i, info)
		}
		anon, aux := sw.Sizes()
		if anon != anonWant {
			t.Fatalf("slice %d has %d anon users, want %d", i, anon, anonWant)
		}
		if aux != info.Hi-info.Lo {
			t.Fatalf("slice %d has %d aux users, window is [%d, %d)", i, aux, info.Lo, info.Hi)
		}
		coverage += aux
	}
	if coverage != auxWant {
		t.Fatalf("slices cover %d aux users, want %d", coverage, auxWant)
	}

	// Bit-identity: merge the slices' rebased answers and compare with
	// the full world and the ScoreSlow oracle, for every anonymized user.
	k := 5
	oracle := oracleAnswers(t, pw, k, opt)
	for u := 0; u < anonWant; u++ {
		rows, err := pw.QueryBatch([]int{u}, k, opt)
		if err != nil {
			t.Fatalf("full QueryBatch([%d]): %v", u, err)
		}
		want := rows[0]
		parts := make([][]shard.Candidate, len(slices))
		for i, sw := range slices {
			info, _ := sw.SliceInfo()
			rows, err := sw.QueryBatch([]int{u}, k, sw.PreparedOptions())
			if err != nil {
				t.Fatalf("slice %d QueryBatch([%d]): %v", i, u, err)
			}
			cands := rows[0]
			rebased := make([]shard.Candidate, len(cands))
			for j, c := range cands {
				rebased[j] = shard.Candidate{User: c.User + info.Lo, Score: c.Score}
			}
			parts[i] = rebased
		}
		got := shard.MergeTopK(parts, k)
		label := fmt.Sprintf("user %d", u)
		sameCandidates(t, label, [][]Candidate{want}, [][]Candidate{got})
		sameCandidates(t, label+" oracle", oracle[u:u+1], [][]Candidate{got})
	}
}

// TestSliceOfSliceRejected: a slice-loaded world refuses to be sliced
// again — cutting an already-local id space would corrupt the global
// numbering the router merges under.
func TestSliceOfSliceRejected(t *testing.T) {
	pw, _ := snapWorld(t, 16, 7100, 2)
	dir := t.TempDir()
	slices := loadSlices(t, pw, dir)
	_, err := slices[0].SnapshotSlices(filepath.Join(dir, "again"))
	if !errors.Is(err, ErrAlreadySlice) {
		t.Fatalf("slicing a slice: err = %v, want ErrAlreadySlice", err)
	}
}

// TestSliceResnapshotKeepsWindow: a shard server's shutdown snapshot of a
// slice-loaded world must still be that slice — identity preserved across
// snapshot generations.
func TestSliceResnapshotKeepsWindow(t *testing.T) {
	pw, _ := snapWorld(t, 16, 7200, 2)
	dir := t.TempDir()
	slices := loadSlices(t, pw, dir)
	info1, _ := slices[1].SliceInfo()

	gen2 := filepath.Join(dir, "gen2.snap")
	if err := slices[1].Snapshot(gen2); err != nil {
		t.Fatalf("re-snapshotting a slice world: %v", err)
	}
	lw, err := LoadWorld(gen2, LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	info2, ok := lw.SliceInfo()
	if !ok || info2 != info1 {
		t.Fatalf("second-generation slice identity %+v (ok=%v), want %+v", info2, ok, info1)
	}
}

// TestSliceFileFailurePaths: damaged slice files fail with the same typed
// errors as full snapshots, and never yield a world.
func TestSliceFileFailurePaths(t *testing.T) {
	pw, _ := snapWorld(t, 14, 7300, 2)
	dir := t.TempDir()
	paths, err := pw.SnapshotSlices(filepath.Join(dir, "world"))
	if err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(paths[0])
	if err != nil {
		t.Fatal(err)
	}

	check := func(name string, wantErr error, mutate func([]byte) []byte) {
		t.Helper()
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, mutate(append([]byte{}, blob...)), 0o644); err != nil {
			t.Fatal(err)
		}
		for _, noMmap := range []bool{false, true} {
			w, err := LoadWorld(p, LoadOptions{NoMmap: noMmap})
			if !errors.Is(err, wantErr) {
				t.Fatalf("%s (noMmap=%v): error %v, want %v", name, noMmap, err, wantErr)
			}
			if w != nil {
				t.Fatalf("%s: got a partially loaded world alongside the error", name)
			}
		}
	}

	check("slice-truncated", ErrSnapshotTruncated, func(b []byte) []byte {
		return b[:len(b)/2]
	})
	check("slice-corrupt", ErrSnapshotCorrupt, func(b []byte) []byte {
		off := binary.LittleEndian.Uint64(b[32:]) // first table entry's section offset
		b[off] ^= 0xff
		return b
	})
	check("slice-not-snapshot", ErrNotSnapshot, func(b []byte) []byte {
		b[0] = 'X'
		return b
	})
}
