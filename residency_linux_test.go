package dehealth

import (
	"bufio"
	"encoding/binary"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// faultAroundSlack bounds the matrix bytes a mapped load and its queries
// may make resident without reading them. A read fault maps the page
// cache folio around the faulting page whole (or a fault_around_bytes
// window of it), so reading a small section next to a feature matrix can
// map that matrix's edge. Each of the two matrices has two edges, and a
// page cache folio is at most 2 MiB (one PMD on x86-64 and arm64 with 4
// KiB pages).
const faultAroundSlack = 4 * 2 << 20

// TestLoadWorldMapsLazily proves that a mapped world's resident set is
// what its queries read: loading a snapshot and answering a query for
// every anonymized user must leave the feature matrices — most of the
// file, and read only by refined DA — out of the process's resident
// pages. It reads the mapping's Rss from /proc/self/smaps.
func TestLoadWorldMapsLazily(t *testing.T) {
	if os.Getpagesize() != 4096 {
		t.Skipf("the fault-around slack assumes 4 KiB pages, this host has %d", os.Getpagesize())
	}
	pw, opt := snapWorld(t, 800, 9100, 1)
	path := filepath.Join(t.TempDir(), "world.snap")
	if err := pw.Snapshot(path); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	pw.world.RLock()
	matrix := int64(8 * pw.anonStore.Dim() * (pw.anonStore.NumPosts() + pw.auxStore.NumPosts()))
	pw.world.RUnlock()
	rest := fi.Size() - matrix
	if matrix < 4*rest || matrix < 2*faultAroundSlack {
		t.Fatalf("feature matrices are %d of %d bytes: too small a share for the check to mean anything", matrix, fi.Size())
	}

	lw, err := LoadWorld(path, LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	anon, _ := lw.Sizes()
	users := make([]int, anon)
	for u := range users {
		users[u] = u
	}
	if _, err := lw.QueryBatch(users, 10, opt); err != nil {
		t.Fatal(err)
	}

	rss, ok := mappingRSS(t, path)
	if !ok {
		t.Fatalf("no mapping of %s in /proc/self/smaps: the load did not map the file", path)
	}
	t.Logf("file %d bytes (matrices %d, rest %d); resident %d bytes", fi.Size(), matrix, rest, rss)
	if limit := rest + faultAroundSlack; rss > limit {
		t.Fatalf("resident %d bytes of the mapping, want at most %d (the %d non-matrix bytes plus %d of fault-around slack)",
			rss, limit, rest, faultAroundSlack)
	}
}

// TestLoadWorldDatasetsStayCold checks, page by page, that a mapped load
// decodes the two dataset JSON sections (ids 10 and 20) from bytes read
// through the descriptor, not from the mapping: after LoadWorld, at most
// one page cache folio of them — the start of section 10, which follows
// the last numeric section the load reads — may be present in the
// process's page tables (/proc/self/pagemap bit 63).
func TestLoadWorldDatasetsStayCold(t *testing.T) {
	if os.Getpagesize() != 4096 {
		t.Skipf("the folio slack assumes 4 KiB pages, this host has %d", os.Getpagesize())
	}
	const folio = 2 << 20
	pw, _ := snapWorld(t, 1500, 9200, 1)
	path := filepath.Join(t.TempDir(), "world.snap")
	if err := pw.Snapshot(path); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var ranges [][2]uint64 // offset, length of sections 10 and 20
	for i := uint32(0); i < binary.LittleEndian.Uint32(blob[8:]); i++ {
		e := blob[24+24*i:]
		if id := binary.LittleEndian.Uint32(e); id == 10 || id == 20 {
			ranges = append(ranges, [2]uint64{binary.LittleEndian.Uint64(e[8:]), binary.LittleEndian.Uint64(e[16:])})
		}
	}
	total := uint64(0)
	for _, r := range ranges {
		total += r[1]
	}
	if len(ranges) != 2 || total < 2*folio {
		t.Fatalf("dataset sections %v: want two, over %d bytes, for the check to mean anything", ranges, 2*folio)
	}

	if _, err := LoadWorld(path, LoadOptions{}); err != nil {
		t.Fatal(err)
	}
	start, ok := mappingStart(t, path)
	if !ok {
		t.Fatalf("no mapping of %s in /proc/self/maps: the load did not map the file", path)
	}
	pm, err := os.Open("/proc/self/pagemap")
	if err != nil {
		t.Skipf("pagemap unreadable: %v", err)
	}
	defer pm.Close()
	present := uint64(0)
	var entry [8]byte
	for _, r := range ranges {
		for page := r[0] / 4096; page*4096 < r[0]+r[1]; page++ {
			if _, err := pm.ReadAt(entry[:], int64((start/4096+page)*8)); err != nil {
				t.Fatal(err)
			}
			if binary.LittleEndian.Uint64(entry[:])>>63 == 1 {
				present += 4096
			}
		}
	}
	t.Logf("dataset sections %d bytes; %d bytes of their pages present", total, present)
	if present > folio {
		t.Fatalf("%d bytes of the dataset sections' pages present after a mapped load, want at most %d", present, folio)
	}
}

// mappingStart returns the start address of the mapping of path at file
// offset 0 in /proc/self/maps; ok is false when none maps it.
func mappingStart(t *testing.T, path string) (start uint64, ok bool) {
	t.Helper()
	path, err := filepath.EvalSymlinks(path)
	if err != nil {
		t.Fatal(err)
	}
	maps, err := os.ReadFile("/proc/self/maps")
	if err != nil {
		t.Skipf("maps unreadable: %v", err)
	}
	for _, line := range strings.Split(string(maps), "\n") {
		fields := strings.Fields(line)
		if len(fields) < 6 || strings.Join(fields[5:], " ") != path || strings.Trim(fields[2], "0") != "" {
			continue
		}
		start, err := strconv.ParseUint(strings.SplitN(fields[0], "-", 2)[0], 16, 64)
		if err != nil {
			t.Fatalf("maps line %q: %v", line, err)
		}
		return start, true
	}
	return 0, false
}

// mappingRSS sums the Rss of every mapping of path in /proc/self/smaps;
// ok is false when none maps it. It skips t where smaps is unreadable.
func mappingRSS(t *testing.T, path string) (rss int64, ok bool) {
	t.Helper()
	path, err := filepath.EvalSymlinks(path)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Open("/proc/self/smaps")
	if err != nil {
		t.Skipf("smaps unreadable: %v", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	in := false
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 {
			continue
		}
		if strings.Contains(fields[0], "-") && len(fields) >= 5 { // a mapping's header line
			in = len(fields) >= 6 && strings.Join(fields[5:], " ") == path
			ok = ok || in
			continue
		}
		if in && fields[0] == "Rss:" && len(fields) >= 2 {
			kb, err := strconv.ParseInt(fields[1], 10, 64)
			if err != nil {
				t.Fatalf("smaps Rss line %q: %v", sc.Text(), err)
			}
			rss += kb << 10
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return rss, ok
}
