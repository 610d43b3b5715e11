package snapshot

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"dehealth/internal/corpus"
	"dehealth/internal/similarity"
)

// fixtureWorld builds a small structurally valid world: two users per
// side, one landmark.
func fixtureWorld() *World {
	return &World{
		Meta: Meta{
			Shards: 1,
			C1:     0.05, C2: 0.05, C3: 0.9, Landmarks: 1,
			Dim: 3, Bigrams: [][2]int{{0, 1}, {2, 3}},
		},
		Anon: Side{
			Dataset:    &corpus.Dataset{Name: "anon"},
			Feat:       [][]float64{{1, 2, 3}, {4, 5, 6}},
			AttrIdx:    []int32{0, 2, 3},
			AttrWeight: []int32{1, 1, 2},
			AttrOff:    []int{0, 1, 3},
			AdjOff:     []int{0, 1, 2},
			AdjTo:      []int32{1, 0},
			AdjWeight:  []float64{0.5, 0.5},
		},
		Aux: Side{
			Dataset:    &corpus.Dataset{Name: "aux"},
			Feat:       [][]float64{{6, 5, 4}, {3, 2, 1}},
			AttrIdx:    []int32{1, 0, 2},
			AttrWeight: []int32{2, 1, 1},
			AttrOff:    []int{0, 1, 3},
			AdjOff:     []int{0, 1, 2},
			AdjTo:      []int32{1, 0},
			AdjWeight:  []float64{0.25, 0.25},
		},
		Scorer: similarity.Parts{
			Landmarks: []int{0},
			NCS:       []float64{1, 2, 3},
			NCSOff:    []int{0, 1, 3},
			NCSNorm:   []float64{1, 1},
			Close:     []float64{0.1, 0.2},
			CloseNorm: []float64{1, 1},
			Wcl:       []float64{0.3, 0.4},
			WclNorm:   []float64{1, 1},

			Hbar2:        1,
			AuxDeg:       []float64{1, 1},
			AuxWdeg:      []float64{2, 2},
			AuxNCS:       []float64{5},
			AuxNCSOff:    []int{0, 0, 1},
			AuxNCSNorm:   []float64{1, 1},
			AuxClose:     []float64{0.5, 0.6},
			AuxCloseNorm: []float64{1, 1},
			AuxWcl:       []float64{0.7, 0.8},
			AuxWclNorm:   []float64{1, 1},
		},
	}
}

func saveFixture(t *testing.T) (string, *World) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "world.snap")
	w := fixtureWorld()
	if err := Save(path, w); err != nil {
		t.Fatalf("Save: %v", err)
	}
	return path, w
}

func TestRoundTrip(t *testing.T) {
	for _, noMmap := range []bool{false, true} {
		path, want := saveFixture(t)
		got, err := Load(path, Options{NoMmap: noMmap})
		if err != nil {
			t.Fatalf("Load(noMmap=%v): %v", noMmap, err)
		}
		// Every unix build maps the file (mmap_unix.go); a silent fall-back
		// to copying there would cost the zero-copy boot without failing
		// any content check.
		unix := runtime.GOOS != "windows" && runtime.GOOS != "plan9" && runtime.GOOS != "js" && runtime.GOOS != "wasip1"
		if wantMapped := !noMmap && unix && nativeLittleEndian && intIs64; got.Mapped != wantMapped {
			t.Errorf("noMmap=%v: Mapped = %v, want %v", noMmap, got.Mapped, wantMapped)
		}
		got.Mapped = false // not part of the content contract
		if !reflect.DeepEqual(&want.Meta, &got.Meta) {
			t.Errorf("noMmap=%v meta mismatch:\n want %+v\n got  %+v", noMmap, want.Meta, got.Meta)
		}
		if !reflect.DeepEqual(&want.Anon, &got.Anon) {
			t.Errorf("noMmap=%v anon side mismatch:\n want %+v\n got  %+v", noMmap, want.Anon, got.Anon)
		}
		if !reflect.DeepEqual(&want.Aux, &got.Aux) {
			t.Errorf("noMmap=%v aux side mismatch:\n want %+v\n got  %+v", noMmap, want.Aux, got.Aux)
		}
		if !reflect.DeepEqual(&want.Scorer, &got.Scorer) {
			t.Errorf("noMmap=%v scorer mismatch:\n want %+v\n got  %+v", noMmap, want.Scorer, got.Scorer)
		}
	}
}

func TestSaveAtomicNoTempLeft(t *testing.T) {
	path, _ := saveFixture(t)
	ents, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 || ents[0].Name() != "world.snap" {
		t.Fatalf("directory should hold only the snapshot, got %v", ents)
	}
}

func TestLoadNotSnapshot(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bogus")
	if err := os.WriteFile(path, []byte("definitely not a snapshot file, but long enough"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path, Options{}); !errors.Is(err, ErrNotSnapshot) {
		t.Fatalf("want ErrNotSnapshot, got %v", err)
	}
}

func TestLoadFutureVersion(t *testing.T) {
	path, _ := saveFixture(t)
	mutate(t, path, func(b []byte) { binary.LittleEndian.PutUint16(b[6:], Version+1) })
	if _, err := Load(path, Options{}); !errors.Is(err, ErrVersion) {
		t.Fatalf("want ErrVersion, got %v", err)
	}
}

func TestLoadTruncated(t *testing.T) {
	path, _ := saveFixture(t)
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, size := range []int64{fi.Size() - 9, fi.Size() / 2, headerSize + 3, 10} {
		if err := os.Truncate(path, size); err != nil {
			t.Fatal(err)
		}
		if _, err := Load(path, Options{}); !errors.Is(err, ErrTruncated) {
			t.Fatalf("truncated to %d bytes: want ErrTruncated, got %v", size, err)
		}
	}
}

func TestLoadSectionCorruption(t *testing.T) {
	path, _ := saveFixture(t)
	// Flip a byte inside the first section's body (located through the
	// table, skipping any alignment padding): its CRC must break.
	mutate(t, path, func(b []byte) {
		off := binary.LittleEndian.Uint64(b[headerSize+8:])
		b[off] ^= 0xff
	})
	if _, err := Load(path, Options{}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("want ErrCorrupt, got %v", err)
	}
}

// TestMappedChecksumShortRead pins the mapped path's checksum reads: the
// sum read through the descriptor equals the sum of the bytes, a file
// that ends inside a section fails ErrTruncated, and a failing read fails
// ErrCorrupt.
func TestMappedChecksumShortRead(t *testing.T) {
	data := make([]byte, 3000)
	for i := range data {
		data[i] = byte(i * 7)
	}
	buf := make([]byte, 256) // several chunks per section
	want := crc32.Checksum(data[40:2900], castagnoli)
	if got, err := sectionCRC(data, bytes.NewReader(data), buf, 40, 2860); err != nil || got != want {
		t.Fatalf("CRC through the reader = %08x, %v; want %08x", got, err, want)
	}
	if _, err := sectionCRC(data, bytes.NewReader(data[:1000]), buf, 40, 2860); !errors.Is(err, ErrTruncated) {
		t.Fatalf("reader ending inside the section: want ErrTruncated, got %v", err)
	}
	if _, err := sectionCRC(data, failingReader{}, buf, 40, 2860); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("failing reader: want ErrCorrupt, got %v", err)
	}
}

// failingReader fails every read.
type failingReader struct{}

func (failingReader) ReadAt([]byte, int64) (int, error) { return 0, errors.New("input/output error") }

func TestLoadTableCorruption(t *testing.T) {
	path, _ := saveFixture(t)
	// Flip a byte inside the section table: its own CRC must catch it.
	mutate(t, path, func(b []byte) { b[headerSize+1] ^= 0xff })
	if _, err := Load(path, Options{}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("want ErrCorrupt, got %v", err)
	}
}

func TestLoadGrownFile(t *testing.T) {
	path, _ := saveFixture(t)
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(make([]byte, 16)); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if _, err := Load(path, Options{}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("file longer than header states: want ErrCorrupt, got %v", err)
	}
}

// TestLoadPrunedWithoutIndexes feeds Load a file whose meta says it was
// written with pruning on but that carries no shard index sections.
func TestLoadPrunedWithoutIndexes(t *testing.T) {
	path := filepath.Join(t.TempDir(), "world.snap")
	w := fixtureWorld()
	w.Meta.Prune = true
	if err := Save(path, w); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path, Options{}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("pruned snapshot without index sections: want ErrCorrupt, got %v", err)
	}
}

// overflowIndexBlob is a v2 shard index blob stating 2^61 attributes.
// (numAttrs+1)*8 wraps to 8, so the blob's length matches what its counts
// demand, and only bounding the count itself keeps the validator from
// sizing anything by it. The v2 header is N, bands, max candidate frac,
// then the counts numAttrs, numBands, postIDs, bandIDs, block size and
// numBlocks — all zero but numAttrs. The body is the wrapped 8-byte
// posting offset table plus the one-entry band offset table.
func overflowIndexBlob() []byte {
	blob := make([]byte, 72+8+8)
	binary.LittleEndian.PutUint64(blob[24:], 1<<61)
	return blob
}

// saveWithIndex saves the fixture world, marked as written with pruning
// on, plus the given legacy shard index sections.
func saveWithIndex(t testing.TB, blobs ...[]byte) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "world.snap")
	w := fixtureWorld()
	w.Meta.Prune = true
	if err := Save(path, w); err != nil {
		t.Fatal(err)
	}
	f, err := readRaw(path, true)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range blobs {
		f.secs = append(f.secs, rawSection{secShardIndex, [][]byte{b}})
	}
	if err := writeRaw(path, f.secs); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestLoadIndexCountOverflow feeds Load a CRC-valid file whose shard index
// blob states 2^61 attributes (see overflowIndexBlob).
func TestLoadIndexCountOverflow(t *testing.T) {
	path := saveWithIndex(t, overflowIndexBlob())
	for _, noMmap := range []bool{false, true} {
		if _, err := Load(path, Options{NoMmap: noMmap}); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("noMmap=%v: want ErrCorrupt, got %v", noMmap, err)
		}
	}
}

// mutate rewrites the file in place through fn (same length).
func mutate(t *testing.T, path string, fn func([]byte)) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	fn(b)
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestLoadOverlappingSections feeds the raw reader a table whose two
// entries name the same bytes. Sections never overlap in a written file,
// and a table that repeats one span many times would make the checksum
// pass quadratic in the file size, so the reader refuses section lengths
// that sum past the file.
func TestLoadOverlappingSections(t *testing.T) {
	const tableEnd = headerSize + 2*entrySize
	b := make([]byte, tableEnd+8)
	copy(b, magic)
	le := binary.LittleEndian
	le.PutUint16(b[6:], Version)
	le.PutUint32(b[8:], 2)
	le.PutUint64(b[16:], uint64(len(b)))
	for i, id := range []uint32{98, 99} {
		e := b[headerSize+i*entrySize:]
		le.PutUint32(e[0:], id)
		le.PutUint32(e[4:], crc32.Checksum(b[tableEnd:], castagnoli))
		le.PutUint64(e[8:], tableEnd)
		le.PutUint64(e[16:], 8)
	}
	le.PutUint32(b[12:], crc32.Checksum(b[headerSize:tableEnd], castagnoli))
	path := filepath.Join(t.TempDir(), "overlap.snap")
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := readRaw(path, true); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("overlapping sections: want ErrCorrupt, got %v", err)
	}
}
