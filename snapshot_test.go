package dehealth

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"unsafe"

	"dehealth/internal/snapshot"
	"dehealth/internal/stylometry"
)

// snapOptions is the preparation configuration the snapshot tests pin:
// small enough to keep the matrix fast, with the shard count the snapshot
// must carry chosen by the caller.
func snapOptions(shards int) Options {
	opt := DefaultOptions()
	opt.MaxBigrams = 50
	opt.Landmarks = 5
	opt.Shards = shards
	return opt
}

func snapWorld(t *testing.T, users int, seed int64, shards int) (*PreparedWorld, Options) {
	t.Helper()
	w := GenerateWorld(WorldConfig{WebMDUsers: users, HBUsers: users, Seed: seed})
	split := SplitClosedWorld(w.WebMD, 0.5, seed+1)
	opt := snapOptions(shards)
	return PrepareWorld(split.Anon, split.Aux, opt), opt
}

// worldAnswers collects every user's lone-query answer (a one-user batch)
// plus one full QueryBatch — both engines the parity tests compare.
func worldAnswers(t *testing.T, pw *PreparedWorld, k int, opt Options) ([][]Candidate, [][]Candidate) {
	t.Helper()
	anon, _ := pw.Sizes()
	users := make([]int, anon)
	single := make([][]Candidate, anon)
	for u := 0; u < anon; u++ {
		users[u] = u
		rows, err := pw.QueryBatch([]int{u}, k, opt)
		if err != nil {
			t.Fatalf("QueryBatch([%d]): %v", u, err)
		}
		cands := rows[0]
		single[u] = cands
	}
	batch, err := pw.QueryBatch(users, k, opt)
	if err != nil {
		t.Fatalf("QueryBatch: %v", err)
	}
	return single, batch
}

// oracleAnswers is every anonymized user's top-k by ScoreSlow over the
// whole auxiliary side and a full sort (score descending, ties to the
// smaller id) — the reference the exact engines are held to.
func oracleAnswers(t *testing.T, pw *PreparedWorld, k int, opt Options) [][]Candidate {
	t.Helper()
	pw.world.RLock()
	defer pw.world.RUnlock()
	p := pw.pipeline(opt.normalized().simConfig())
	out := make([][]Candidate, p.G1.NumNodes())
	for u := range out {
		row := make([]Candidate, p.G2.NumNodes())
		for v := range row {
			row[v] = Candidate{User: v, Score: p.Scorer.ScoreSlow(u, v)}
		}
		sort.Slice(row, func(a, b int) bool {
			if row[a].Score != row[b].Score {
				return row[a].Score > row[b].Score
			}
			return row[a].User < row[b].User
		})
		out[u] = row[:min(k, len(row))]
	}
	return out
}

// sameCandidates demands bit-identity: same users in the same order with
// exactly equal float64 scores.
func sameCandidates(t *testing.T, label string, want, got [][]Candidate) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d answer sets, want %d", label, len(got), len(want))
	}
	for u := range want {
		if len(want[u]) != len(got[u]) {
			t.Fatalf("%s: user %d got %d candidates, want %d", label, u, len(got[u]), len(want[u]))
		}
		for i := range want[u] {
			if want[u][i] != got[u][i] {
				t.Fatalf("%s: user %d candidate %d: got %+v, want %+v", label, u, i, got[u][i], want[u][i])
			}
		}
	}
}

// TestSnapshotRoundTripParity is the PR's acceptance contract: across
// shard counts and both load paths (mmap and copying), a saved-and-reloaded
// world answers lone and batched queries byte-for-byte identically to the
// world that saved it, and both match the ScoreSlow oracle.
func TestSnapshotRoundTripParity(t *testing.T) {
	for _, shards := range []int{1, 3} {
		pw, opt := snapWorld(t, 20, int64(1000+10*shards), shards)
		wantSingle, wantBatch := worldAnswers(t, pw, 5, opt)
		sameCandidates(t, fmt.Sprintf("shards=%d oracle", shards), oracleAnswers(t, pw, 5, opt), wantSingle)

		path := filepath.Join(t.TempDir(), "world.snap")
		if err := pw.Snapshot(path); err != nil {
			t.Fatalf("shards=%d: Snapshot: %v", shards, err)
		}
		for _, noMmap := range []bool{false, true} {
			lw, err := LoadWorld(path, LoadOptions{NoMmap: noMmap})
			if err != nil {
				t.Fatalf("shards=%d noMmap=%v: LoadWorld: %v", shards, noMmap, err)
			}
			la, lx := lw.Sizes()
			wa, wx := pw.Sizes()
			if la != wa || lx != wx {
				t.Fatalf("restored sizes (%d, %d), want (%d, %d)", la, lx, wa, wx)
			}
			gotSingle, gotBatch := worldAnswers(t, lw, 5, lw.PreparedOptions())
			label := fmt.Sprintf("shards=%d noMmap=%v", shards, noMmap)
			sameCandidates(t, label+" lone", wantSingle, gotSingle)
			sameCandidates(t, label+" QueryBatch", wantBatch, gotBatch)
		}
	}
}

// TestSnapshotRoundTripSecondGeneration re-snapshots a loaded world: the
// restore must be complete enough to save again — byte for byte the file
// it was loaded from — and the grandchild must still answer identically.
func TestSnapshotRoundTripSecondGeneration(t *testing.T) {
	pw, opt := snapWorld(t, 16, 2000, 2)
	want, _ := worldAnswers(t, pw, 4, opt)

	dir := t.TempDir()
	p1 := filepath.Join(dir, "gen1.snap")
	p2 := filepath.Join(dir, "gen2.snap")
	if err := pw.Snapshot(p1); err != nil {
		t.Fatal(err)
	}
	w1, err := LoadWorld(p1, LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := w1.Snapshot(p2); err != nil {
		t.Fatalf("re-snapshotting a loaded world: %v", err)
	}
	b1, err := os.ReadFile(p1)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := os.ReadFile(p2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatalf("second-generation file differs from the first (%d vs %d bytes)", len(b2), len(b1))
	}
	w2, err := LoadWorld(p2, LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got, _ := worldAnswers(t, w2, 4, w2.PreparedOptions())
	sameCandidates(t, "second generation", want, got)
}

// TestSnapshotIngestAfterLoad proves a restored world keeps growing: the
// anonymized side accepts new accounts (appends must reallocate, never
// write the read-only mapping) and both old and new users stay queryable.
func TestSnapshotIngestAfterLoad(t *testing.T) {
	pw, opt := snapWorld(t, 16, 3000, 2)
	path := filepath.Join(t.TempDir(), "world.snap")
	if err := pw.Snapshot(path); err != nil {
		t.Fatal(err)
	}
	lw, err := LoadWorld(path, LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	anon0, _ := lw.Sizes()
	// Warm a pipeline first so ingestion exercises the incremental sync
	// against the restored scorer caches.
	if _, err := lw.QueryBatch([]int{0}, 3, opt); err != nil {
		t.Fatal(err)
	}
	id, err := lw.IngestUser("post-restart-account", []IngestPost{
		{Thread: 0, Text: "the new medication helps but the side effects are rough"},
		{Thread: NewThread, Text: "switched clinics, anyone have experience with the downtown one?"},
	})
	if err != nil {
		t.Fatalf("ingest into a restored world: %v", err)
	}
	if id != anon0 {
		t.Fatalf("ingested id %d, want %d", id, anon0)
	}
	rows, err := lw.QueryBatch([]int{id}, 5, opt)
	if err != nil {
		t.Fatal(err)
	}
	cands := rows[0]
	if len(cands) != 5 {
		t.Fatalf("ingested user got %d candidates, want 5", len(cands))
	}
}

// TestSnapshotAfterIngestDrain is the serving-path satellite: a world
// grown through the live HTTP ingest path, drained, then snapshotted must
// restore with the ingested accounts included and answering identically.
func TestSnapshotAfterIngestDrain(t *testing.T) {
	pw, opt := snapWorld(t, 16, 4000, 1)
	dir := t.TempDir()
	endpointPath := filepath.Join(dir, "endpoint.snap")
	shutdownPath := filepath.Join(dir, "shutdown.snap")

	srv := NewServer(pw, ServeOptions{
		Workers: 2, Batch: 4,
		K: 5, Attack: opt, SnapshotPath: endpointPath,
	})
	ts := httptest.NewServer(srv.Handler())

	body := `{"name":"live-ingested","posts":[{"text":"new symptoms since last week"},{"thread":0,"text":"thanks, that thread helped"}]}`
	resp, err := http.Post(ts.URL+"/v1/ingest", "application/json", bytes.NewBufferString(body))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest status %d", resp.StatusCode)
	}
	resp.Body.Close()

	// Admin endpoint: snapshot the live (already grown) world.
	resp, err = http.Post(ts.URL+"/v1/snapshot", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	var info struct {
		Path  string `json:"path"`
		Bytes int64  `json:"bytes"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || info.Path != endpointPath || info.Bytes <= 0 {
		t.Fatalf("snapshot endpoint: status %d, info %+v", resp.StatusCode, info)
	}

	// Drain, then write the shutdown snapshot exactly as dehealthd does.
	ts.Close()
	if err := srv.Close(); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if err := pw.Snapshot(shutdownPath); err != nil {
		t.Fatal(err)
	}

	want, wantBatch := worldAnswers(t, pw, 5, opt)
	for _, path := range []string{endpointPath, shutdownPath} {
		lw, err := LoadWorld(path, LoadOptions{})
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		la, _ := lw.Sizes()
		wa, _ := pw.Sizes()
		if la != wa {
			t.Fatalf("%s: restored %d anon users, want %d (ingested account lost)", path, la, wa)
		}
		got, gotBatch := worldAnswers(t, lw, 5, lw.PreparedOptions())
		sameCandidates(t, path+" lone", want, got)
		sameCandidates(t, path+" QueryBatch", wantBatch, gotBatch)
	}
}

// TestSnapshotEndpointUnconfigured pins the admin endpoint's disabled
// state: without a snapshot path the request fails cleanly.
func TestSnapshotEndpointUnconfigured(t *testing.T) {
	pw, opt := snapWorld(t, 12, 5000, 1)
	srv := NewServer(pw, ServeOptions{Attack: opt})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp, err := http.Post(ts.URL+"/v1/snapshot", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotImplemented {
		t.Fatalf("status %d, want %d", resp.StatusCode, http.StatusNotImplemented)
	}
}

// TestLoadWorldFailurePaths drives the public loader through every typed
// rejection: wrong file, future version, truncation, corruption. None may
// return a world.
func TestLoadWorldFailurePaths(t *testing.T) {
	pw, _ := snapWorld(t, 12, 6000, 1)
	dir := t.TempDir()
	path := filepath.Join(dir, "world.snap")
	if err := pw.Snapshot(path); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	load := func(name, p string, wantErr error) {
		t.Helper()
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
	check := func(name string, wantErr error, mutate func([]byte) []byte) {
		t.Helper()
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, mutate(append([]byte{}, blob...)), 0o644); err != nil {
			t.Fatal(err)
		}
		load(name, p, wantErr)
	}

	check("not-a-snapshot", ErrNotSnapshot, func(b []byte) []byte {
		b[0] = 'X'
		return b
	})
	check("future-version", ErrSnapshotVersion, func(b []byte) []byte {
		binary.LittleEndian.PutUint16(b[6:], 0x7fff)
		return b
	})
	check("truncated", ErrSnapshotTruncated, func(b []byte) []byte {
		return b[:len(b)/2]
	})
	check("flipped-crc-byte", ErrSnapshotCorrupt, func(b []byte) []byte {
		off := binary.LittleEndian.Uint64(b[32:]) // first table entry's section offset
		b[off] ^= 0xff
		return b
	})

	// A mapped file's checksums are read through the descriptor a buffer
	// (1 MiB) at a time, so flip a byte of a larger world's largest section
	// past the first buffer, and the last byte of the last section. The
	// format reader and the public loader must both refuse either file.
	big, _ := snapWorld(t, 200, 6100, 1)
	bigPath := filepath.Join(dir, "big.snap")
	if err := big.Snapshot(bigPath); err != nil {
		t.Fatal(err)
	}
	bigBlob, err := os.ReadFile(bigPath)
	if err != nil {
		t.Fatal(err)
	}
	var largest, last [2]uint64 // offset, length
	for i := uint32(0); i < binary.LittleEndian.Uint32(bigBlob[8:]); i++ {
		e := bigBlob[24+24*i:]
		sec := [2]uint64{binary.LittleEndian.Uint64(e[8:]), binary.LittleEndian.Uint64(e[16:])}
		if sec[1] > largest[1] {
			largest = sec
		}
		if sec[0] > last[0] {
			last = sec
		}
	}
	const verifyBuf = 1 << 20
	if largest[1] < 2*verifyBuf {
		t.Fatalf("largest section is %d bytes, want at least %d", largest[1], 2*verifyBuf)
	}
	for name, at := range map[string]uint64{
		"deep-in-largest-section": largest[0] + verifyBuf + (largest[1]-verifyBuf)/2,
		"end-of-last-section":     last[0] + last[1] - 1,
	} {
		b := append([]byte{}, bigBlob...)
		b[at] ^= 0xff
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, b, 0o644); err != nil {
			t.Fatal(err)
		}
		for _, noMmap := range []bool{false, true} {
			sw, err := snapshot.Load(p, snapshot.Options{NoMmap: noMmap})
			if !errors.Is(err, ErrSnapshotCorrupt) || sw != nil {
				t.Fatalf("%s (noMmap=%v): snapshot.Load returned %v with world %v, want ErrSnapshotCorrupt and none", name, noMmap, err, sw != nil)
			}
		}
		load(name, p, ErrSnapshotCorrupt)
	}

	// A well-formed file whose bigram list repeats a pair: the feature
	// count still matches the matrices, but the space has a dimension no
	// post can fill and matches no fitted extractor.
	pw.world.RLock()
	sw := pw.snapshotWorld()
	pw.world.RUnlock()
	bigrams := append([][2]int(nil), sw.Meta.Bigrams...)
	if len(bigrams) < 2 {
		t.Fatalf("world fitted %d bigrams, want at least 2", len(bigrams))
	}
	bigrams[1] = bigrams[0]
	sw.Meta.Bigrams = bigrams
	repeated := filepath.Join(dir, "repeated-bigram")
	if err := snapshot.Save(repeated, sw); err != nil {
		t.Fatal(err)
	}
	load("repeated-bigram", repeated, ErrSnapshotCorrupt)

	// Well-formed files whose attribute sets break what the kernels assume
	// of them: the checks LoadWorld makes on the file's ids and weights are
	// all that stands between those bytes and the sparse merges. Each set
	// is mutated at a user with at least two attributes, on either side.
	for name, mutate := range map[string]func(idx, wt []int32, k int){
		"descending-attr-ids":  func(idx, _ []int32, k int) { idx[k], idx[k+1] = idx[k+1], idx[k] },
		"repeated-attr-id":     func(idx, _ []int32, k int) { idx[k+1] = idx[k] },
		"negative-attr-id":     func(idx, _ []int32, k int) { idx[k] = -1 },
		"zero-attr-weight":     func(_, wt []int32, k int) { wt[k] = 0 },
		"negative-attr-weight": func(_, wt []int32, k int) { wt[k] = -3 },
	} {
		for _, aux := range []bool{false, true} {
			pw.world.RLock()
			sw := pw.snapshotWorld()
			pw.world.RUnlock()
			side := &sw.Anon
			if aux {
				side = &sw.Aux
			}
			u := 0
			for u < len(side.AttrOff)-1 && side.AttrOff[u+1]-side.AttrOff[u] < 2 {
				u++
			}
			if u == len(side.AttrOff)-1 {
				t.Fatalf("no user with two attributes (aux=%v)", aux)
			}
			mutate(side.AttrIdx, side.AttrWeight, side.AttrOff[u])
			p := filepath.Join(dir, fmt.Sprintf("%s-aux-%v", name, aux))
			if err := snapshot.Save(p, sw); err != nil {
				t.Fatal(err)
			}
			load(filepath.Base(p), p, ErrSnapshotCorrupt)
		}
	}
}

// TestLoadWorldAttrsViewFile pins that a mapped load hands the stores the
// file's own attribute pages: every user's Idx and Weight start at that
// user's offset in the decoded AttrIdx and AttrWeight sections (which
// alias the mapping), and each view's capacity ends at its length, so an
// append can never write through into the next user's set or the file.
func TestLoadWorldAttrsViewFile(t *testing.T) {
	pw, _ := snapWorld(t, 40, 6200, 1)
	path := filepath.Join(t.TempDir(), "world.snap")
	if err := pw.Snapshot(path); err != nil {
		t.Fatal(err)
	}
	sw, err := snapshot.Load(path, snapshot.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !sw.Mapped {
		t.Skip("the platform offers no zero-copy load")
	}
	ex := stylometry.New()
	if err := ex.SetBigrams(sw.Meta.Bigrams); err != nil {
		t.Fatal(err)
	}
	for _, side := range []snapshot.Side{sw.Anon, sw.Aux} {
		_, st, err := restoreSide(side, ex)
		if err != nil {
			t.Fatal(err)
		}
		for u, a := range st.Attrs() {
			lo, n := side.AttrOff[u], a.Len()
			if n == 0 {
				continue
			}
			if unsafe.Pointer(unsafe.SliceData(a.Idx)) != unsafe.Pointer(&side.AttrIdx[lo]) ||
				unsafe.Pointer(unsafe.SliceData(a.Weight)) != unsafe.Pointer(&side.AttrWeight[lo]) {
				t.Fatalf("user %d: attribute set is not a view of its sections at offset %d", u, lo)
			}
			if cap(a.Idx) != n || cap(a.Weight) != n || len(a.Weight) != n {
				t.Fatalf("user %d: views of len %d/%d, cap %d/%d; want len == cap", u, n, len(a.Weight), cap(a.Idx), cap(a.Weight))
			}
		}
	}
}
