package snapshot

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

// The committed fixtures of the root package: whole worlds written with
// pruning on by the format-v1 and format-v2 writers, each carrying one
// shard index section per shard.
var legacyFixtures = []struct {
	path    string
	version int
}{
	{"../../testdata/v1_world.snap", 1},
	{"../../testdata/v2_world.snap", 2},
}

// fixtureIndexBlob returns the first shard index section of a committed
// fixture.
func fixtureIndexBlob(t testing.TB, path string) []byte {
	t.Helper()
	f, err := readRaw(path, true)
	if err != nil {
		t.Fatal(err)
	}
	blobs := f.sections(secShardIndex)
	if len(blobs) == 0 {
		t.Fatalf("%s carries no shard index section", path)
	}
	return append([]byte(nil), blobs[0]...)
}

// TestLoadLegacyIndexSections pins the reader's side of dropping the index
// write path: both fixtures still load on both paths, their index sections
// are validated and nothing else of them reaches the World.
func TestLoadLegacyIndexSections(t *testing.T) {
	for _, fx := range legacyFixtures {
		raw, err := readRaw(fx.path, true)
		if err != nil {
			t.Fatal(err)
		}
		if raw.version != fx.version {
			t.Fatalf("%s: format version %d, want %d", fx.path, raw.version, fx.version)
		}
		if n := len(raw.sections(secShardIndex)); n != 2 {
			t.Fatalf("%s: %d shard index sections, want 2", fx.path, n)
		}
		for _, noMmap := range []bool{false, true} {
			w, err := Load(fx.path, Options{NoMmap: noMmap})
			if err != nil {
				t.Fatalf("%s noMmap=%v: %v", fx.path, noMmap, err)
			}
			if !w.Meta.Prune || w.Meta.Shards != 2 {
				t.Fatalf("%s noMmap=%v: meta %+v, want a pruned 2-shard world", fx.path, noMmap, w.Meta)
			}
		}
	}
}

// TestLegacyIndexBlobRejectsMalformed pins the structural validation of
// legacy index sections: a fixture's own blob passes at its version, and
// every broken shape fails ErrCorrupt, directly and through Load.
func TestLegacyIndexBlobRejectsMalformed(t *testing.T) {
	for _, fx := range legacyFixtures {
		if err := checkIndexBlob(fixtureIndexBlob(t, fx.path), fx.version); err != nil {
			t.Fatalf("%s: own blob rejected: %v", fx.path, err)
		}
	}
	v1 := fixtureIndexBlob(t, legacyFixtures[0].path)
	if err := checkIndexBlob(v1, 2); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("v1 blob read as v2: want ErrCorrupt, got %v", err)
	}

	good := fixtureIndexBlob(t, legacyFixtures[1].path)
	le := binary.LittleEndian
	word := func(b []byte, i int) uint64 { return le.Uint64(b[8*i:]) }
	mutated := func(fn func(b []byte) []byte) []byte { return fn(append([]byte(nil), good...)) }
	for _, tc := range []struct {
		name string
		blob []byte
	}{
		{"empty", nil},
		{"header only", good[:72]},
		{"truncated body", good[:len(good)-8]},
		{"grown body", append(append([]byte(nil), good...), make([]byte, 8)...)},
		{"count overflow", overflowIndexBlob()},
		{"negative count", mutated(func(b []byte) []byte { le.PutUint64(b[40:], ^uint64(0)); return b })},
		{"negative block size", mutated(func(b []byte) []byte { le.PutUint64(b[56:], ^uint64(0)); return b })},
		{"blocks without size", mutated(func(b []byte) []byte { le.PutUint64(b[56:], 0); return b })},
		{"blocks do not tile", mutated(func(b []byte) []byte { le.PutUint64(b[56:], 1); return b })},
		{"posting offsets start past 0", mutated(func(b []byte) []byte { le.PutUint64(b[72:], 1); return b })},
		{"posting offsets decrease", mutated(func(b []byte) []byte {
			// The second entry of the posting offset table, set past the
			// (monotone, ending at postIDs) rest of the table.
			le.PutUint64(b[80:], word(b, 5)+1)
			return b
		})},
		{"band offsets short of their array", mutated(func(b []byte) []byte {
			n, attrs, post := int(word(b, 0)), int(word(b, 3)), int(word(b, 5))
			last := 72 + (attrs+1)*8 + post*4 + n*4 + int(word(b, 4))*8
			le.PutUint64(b[last:], word(b, 6)-1)
			return b
		})},
	} {
		if err := checkIndexBlob(tc.blob, 2); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: want ErrCorrupt, got %v", tc.name, err)
		}
		if _, err := Load(saveWithIndex(t, good, tc.blob), Options{}); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s through Load: want ErrCorrupt, got %v", tc.name, err)
		}
	}
}

// FuzzLoad feeds Load arbitrary files. Every input must end in a typed
// error or in a World whose structure holds; no input may panic. Each
// input is tried twice: as given, and with its checksums recomputed where
// its header and section table allow, so mutations reach the section
// decoders instead of stopping at a CRC. The seeds are the tiny fixture
// world, the same world carrying the v1 and the v2 fixture's first index
// section under that fixture's version, and the count-overflow blob. The
// fixtures themselves are not seeds: at ~500 KB, the minimizer spends a
// CI-length run shrinking the first mutant of one. Inputs go through
// parseRaw and world, which is Load minus the file read: a file per input
// would make every run (and the minimizer's many) pay for the file
// system, and a mapping is never unmapped (see mapFile).
func FuzzLoad(f *testing.F) {
	seed := func(path string, version uint16) {
		b, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		binary.LittleEndian.PutUint16(b[6:], version)
		f.Add(b)
	}
	plain := filepath.Join(f.TempDir(), "fixture.snap")
	if err := Save(plain, fixtureWorld()); err != nil {
		f.Fatal(err)
	}
	seed(plain, Version)
	for _, fx := range legacyFixtures {
		seed(saveWithIndex(f, fixtureIndexBlob(f, fx.path)), uint16(fx.version))
	}
	seed(saveWithIndex(f, overflowIndexBlob()), Version)

	f.Fuzz(func(t *testing.T, b []byte) {
		for _, in := range [][]byte{b, rechecksummed(b)} {
			raw, err := parseRaw(in, nil)
			var w *World
			if err == nil {
				w, err = raw.world()
			}
			if err != nil {
				if !errors.Is(err, ErrNotSnapshot) && !errors.Is(err, ErrVersion) &&
					!errors.Is(err, ErrTruncated) && !errors.Is(err, ErrCorrupt) {
					t.Fatalf("untyped error: %v", err)
				}
				continue
			}
			for _, s := range []*Side{&w.Anon, &w.Aux} {
				if err := s.validate(); err != nil {
					t.Fatalf("loaded world fails side validation: %v", err)
				}
			}
			if err := validateScorer(&w.Scorer); err != nil {
				t.Fatalf("loaded world fails scorer validation: %v", err)
			}
		}
	})
}

// rechecksummed returns a copy of b with the CRCs of its in-bounds
// sections (up to a file's worth of bytes, as readRaw allows) and of its
// section table recomputed, or b itself when the header or the table does
// not fit.
func rechecksummed(b []byte) []byte {
	if len(b) < headerSize {
		return b
	}
	count := uint64(binary.LittleEndian.Uint32(b[8:]))
	tableEnd := headerSize + count*entrySize
	if tableEnd > uint64(len(b)) {
		return b
	}
	out := append([]byte(nil), b...)
	budget := uint64(len(out))
	for i := uint64(0); i < count; i++ {
		e := out[headerSize+i*entrySize:]
		off, n := binary.LittleEndian.Uint64(e[8:]), binary.LittleEndian.Uint64(e[16:])
		if off <= uint64(len(out)) && n <= uint64(len(out))-off && n <= budget {
			binary.LittleEndian.PutUint32(e[4:], crc32.Checksum(out[off:off+n], castagnoli))
			budget -= n
		}
	}
	binary.LittleEndian.PutUint32(out[12:], crc32.Checksum(out[headerSize:tableEnd], castagnoli))
	return out
}
