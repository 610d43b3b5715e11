// Package snapshot implements the versioned, checksummed, mmap-able
// on-disk format for a prepared De-Health world — the artifact behind the
// warm-restart path (docs/SNAPSHOT.md): the offline prepare pipeline runs
// once, Save freezes its outputs (feature matrices, UDA adjacency, scorer
// SoA caches, datasets), and Load maps the file back so a query server
// boots in milliseconds instead of replaying minutes of extraction.
//
// A snapshot file is a header (magic, format version, section count, CRCs)
// followed by a section table and 8-byte-aligned little-endian sections.
// Fixed-width numeric sections hold the hot arrays exactly as the scoring
// kernel walks them in memory; variable-length sections (the meta document
// and the two dataset JSON blobs — the name/text string tables) sit at the
// tail. Every section is CRC-32C checksummed, and the table itself carries
// its own checksum, so truncation and corruption are detected before any
// state is handed to callers: Load either returns a fully validated World
// or a typed error (ErrNotSnapshot, ErrVersion, ErrTruncated, ErrCorrupt)
// — never a partially loaded world.
//
// On load the numeric sections become typed slices. When the platform
// allows it (little-endian, 64-bit ints, 8-byte section alignment — and
// mmap support unless Options.NoMmap asks for the copying path) the slices
// alias the mapping zero-copy; otherwise each section is decoded into
// fresh heap memory. Aliased memory is read-only: every consumer of the
// restored arrays only reads them (growth of the anonymized side appends,
// which reallocates), per the contract in docs/SNAPSHOT.md. A mapped
// file's checksums are read through its descriptor, not the mapping, so
// loading leaves the sections' pages on disk until something reads them.
package snapshot

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
)

// Format identity. The magic bytes never change; Version bumps on any
// layout change, and Load rejects files whose version it does not
// implement (no forward compatibility: a reader never guesses at sections
// it does not understand). Older versions back to minVersion stay
// readable: version 1 differs from 2 only in the layout of the legacy
// shard-index blob (no block-max metadata), which checkIndexBlob
// validates per version and no current writer emits.
const (
	// Version is the snapshot format version this package writes.
	Version = 2
	// minVersion is the oldest format version this package still reads.
	minVersion = 1

	magic      = "DHSNAP"
	headerSize = 24 // magic[6] + version u16 + count u32 + tableCRC u32 + fileSize u64
	entrySize  = 24 // id u32 + crc u32 + off u64 + len u64
)

// Typed load errors. Load wraps them with detail; match with errors.Is.
var (
	// ErrNotSnapshot marks a file that does not start with the snapshot
	// magic — not a snapshot at all, rather than a damaged one.
	ErrNotSnapshot = errors.New("snapshot: not a dehealth snapshot file")
	// ErrVersion marks a snapshot written by an unsupported (typically
	// future) format version.
	ErrVersion = errors.New("snapshot: unsupported snapshot format version")
	// ErrTruncated marks a file shorter than its header claims.
	ErrTruncated = errors.New("snapshot: truncated snapshot file")
	// ErrCorrupt marks a structurally invalid file: checksum mismatch,
	// malformed section table, or sections that fail decoding.
	ErrCorrupt = errors.New("snapshot: corrupt snapshot file")
)

// castagnoli is the CRC-32C table shared by every checksum in the format.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Options configures Load.
type Options struct {
	// NoMmap forces the copying load path: the file is read into heap
	// memory and every section is decoded into freshly allocated slices,
	// so nothing in the loaded world aliases the file. The default (false)
	// memory-maps the file and hands out zero-copy slice views over the
	// mapping where alignment and byte order allow.
	NoMmap bool
}

// rawSection is one section: a typed id and its raw little-endian bytes,
// held as runs laid end to end. The writer takes a matrix as one run per
// row, so it writes row views without first copying them into one array;
// a section of a loaded file is always a single run over the file's bytes.
type rawSection struct {
	id   uint32
	runs [][]byte
}

// size returns the section's length in bytes.
func (s rawSection) size() uint64 {
	n := uint64(0)
	for _, r := range s.runs {
		n += uint64(len(r))
	}
	return n
}

// checksum returns the CRC-32C of the section's bytes.
func (s rawSection) checksum() uint32 {
	crc := uint32(0)
	for _, r := range s.runs {
		crc = crc32.Update(crc, castagnoli, r)
	}
	return crc
}

// ioBufSize is the size of the buffer a snapshot is written through and
// of the one a mapped snapshot's sections are checksummed through.
const ioBufSize = 1 << 20

// align8 rounds n up to the next multiple of 8 — the section alignment
// that makes zero-copy float64/int64 views safe on the mapped file.
func align8(n uint64) uint64 { return (n + 7) &^ 7 }

// writeRaw lays the sections out in order and writes the file atomically
// (temp file in the same directory + rename), so a crash mid-save can
// never leave a half-written snapshot under the target name.
func writeRaw(path string, secs []rawSection) (err error) {
	// Layout pass: assign aligned offsets.
	off := align8(headerSize + uint64(len(secs))*entrySize)
	offs := make([]uint64, len(secs))
	for i, s := range secs {
		offs[i] = off
		off = align8(off + s.size())
	}
	total := off

	header := make([]byte, headerSize+len(secs)*entrySize)
	copy(header, magic)
	binary.LittleEndian.PutUint16(header[6:], Version)
	binary.LittleEndian.PutUint32(header[8:], uint32(len(secs)))
	binary.LittleEndian.PutUint64(header[16:], total)
	for i, s := range secs {
		e := header[headerSize+i*entrySize:]
		binary.LittleEndian.PutUint32(e[0:], s.id)
		binary.LittleEndian.PutUint32(e[4:], s.checksum())
		binary.LittleEndian.PutUint64(e[8:], offs[i])
		binary.LittleEndian.PutUint64(e[16:], s.size())
	}
	binary.LittleEndian.PutUint32(header[12:], crc32.Checksum(header[headerSize:], castagnoli))

	tmp, err := os.CreateTemp(dirOf(path), ".snapshot-*")
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()
	// Runs shorter than the buffer are gathered into it; longer ones go
	// straight to the file.
	bw := bufio.NewWriterSize(tmp, ioBufSize)
	if _, err = bw.Write(header); err != nil {
		return err
	}
	pos := uint64(len(header))
	var pad [8]byte
	for i, s := range secs {
		if offs[i] > pos {
			if _, err = bw.Write(pad[:offs[i]-pos]); err != nil {
				return err
			}
			pos = offs[i]
		}
		for _, r := range s.runs {
			if _, err = bw.Write(r); err != nil {
				return err
			}
		}
		pos += s.size()
	}
	if total > pos { // trailing alignment of the last section
		if _, err = bw.Write(pad[:total-pos]); err != nil {
			return err
		}
	}
	if err = bw.Flush(); err != nil {
		return err
	}
	if err = tmp.Sync(); err != nil {
		return err
	}
	if err = tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// dirOf returns the directory of path ("." for a bare file name), for
// same-filesystem temp-file placement.
func dirOf(path string) string {
	for i := len(path) - 1; i >= 0; i-- {
		if path[i] == '/' || path[i] == os.PathSeparator {
			return path[:i+1]
		}
	}
	return "."
}

// rawFile is a validated snapshot file: the backing bytes (mapped or
// heap), the decoded section table, and whether sections may be aliased
// zero-copy.
type rawFile struct {
	data []byte
	// zeroCopy reports that typed slices may alias data directly: the file
	// is memory-mapped (so the backing never moves and is never written)
	// and the platform is little-endian with 64-bit ints.
	zeroCopy bool
	// version is the file's stated format version, in [minVersion, Version];
	// decoders with per-version layouts branch on it.
	version int
	secs    []rawSection // each one run, aliasing rawFile.data (a mapped file's JSON sections excepted)
}

// readRaw opens, (optionally) maps and fully validates a snapshot file
// (see parseRaw). The descriptor stays open until validation ends: a
// mapped file's checksums are read through it.
func readRaw(path string, noMmap bool) (*rawFile, error) {
	file, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer file.Close() // a mapping outlives the descriptor
	data, mapped, err := mapFile(file, noMmap)
	if err != nil {
		return nil, err
	}
	if !mapped {
		return parseRaw(data, nil)
	}
	return parseRaw(data, file)
}

// parseRaw validates a snapshot file's bytes: magic, version, size, table
// checksum, per-section bounds, alignment and checksums. A non-nil file
// means data is a read-only mapping of it that the sections may alias;
// the sections' checksums are then read through file into one reused
// buffer, not through the mapping, so validation leaves no section page
// resident and a loaded world's resident set is what its queries read.
// The JSON sections, which Load decodes into fresh heap values, are read
// through file whole into their own buffer and handed on from there, so
// their pages are never mapped in either. The header and the table are
// read from data either way. Any failure returns a typed error and no
// data.
func parseRaw(data []byte, file io.ReaderAt) (*rawFile, error) {
	if len(data) < headerSize {
		return nil, fmt.Errorf("%w: %d bytes, header needs %d", ErrTruncated, len(data), headerSize)
	}
	if string(data[:6]) != magic {
		return nil, ErrNotSnapshot
	}
	version := int(binary.LittleEndian.Uint16(data[6:]))
	if version < minVersion || version > Version {
		return nil, fmt.Errorf("%w: file version %d, this build reads versions %d-%d", ErrVersion, version, minVersion, Version)
	}
	count := binary.LittleEndian.Uint32(data[8:])
	tableCRC := binary.LittleEndian.Uint32(data[12:])
	stated := binary.LittleEndian.Uint64(data[16:])
	if uint64(len(data)) < stated {
		return nil, fmt.Errorf("%w: file is %d bytes, header states %d", ErrTruncated, len(data), stated)
	}
	if uint64(len(data)) != stated {
		return nil, fmt.Errorf("%w: file is %d bytes, header states %d", ErrCorrupt, len(data), stated)
	}
	tableEnd := uint64(headerSize) + uint64(count)*entrySize
	if tableEnd > stated {
		return nil, fmt.Errorf("%w: section table (%d entries) exceeds file", ErrCorrupt, count)
	}
	table := data[headerSize:tableEnd]
	if crc32.Checksum(table, castagnoli) != tableCRC {
		return nil, fmt.Errorf("%w: section table checksum mismatch", ErrCorrupt)
	}
	var buf []byte
	if file != nil {
		buf = make([]byte, min(ioBufSize, stated))
	}
	f := &rawFile{data: data, zeroCopy: file != nil && nativeLittleEndian && intIs64, version: version}
	f.secs = make([]rawSection, count)
	covered := uint64(0) // section bytes so far; sections never overlap
	for i := range f.secs {
		e := table[i*entrySize:]
		id := binary.LittleEndian.Uint32(e[0:])
		crc := binary.LittleEndian.Uint32(e[4:])
		off := binary.LittleEndian.Uint64(e[8:])
		n := binary.LittleEndian.Uint64(e[16:])
		if off%8 != 0 || off < tableEnd || off+n < off || off+n > stated {
			return nil, fmt.Errorf("%w: section %d spans [%d, %d) outside the file", ErrCorrupt, id, off, off+n)
		}
		// Bounding the total keeps the checksum work linear in the file
		// size: a crafted table cannot name the same bytes over and over.
		if covered += n; covered > stated-tableEnd {
			return nil, fmt.Errorf("%w: sections claim more bytes than the file holds", ErrCorrupt)
		}
		run, chunk := data[off:off+n], buf
		if file != nil && (id == secMeta || id == secAnonDataset || id == secAuxDataset) {
			run = make([]byte, n)
			chunk = run
		}
		got, err := sectionCRC(data, file, chunk, off, n)
		if err != nil {
			return nil, err
		}
		if got != crc {
			return nil, fmt.Errorf("%w: section %d checksum mismatch", ErrCorrupt, id)
		}
		f.secs[i] = rawSection{id: id, runs: [][]byte{run}}
	}
	return f, nil
}

// sectionCRC returns the CRC-32C of data[off:off+n]. When data maps file,
// the bytes are read through file into buf a chunk at a time instead, and
// data is never touched. A short read fails typed.
func sectionCRC(data []byte, file io.ReaderAt, buf []byte, off, n uint64) (uint32, error) {
	if file == nil {
		return crc32.Checksum(data[off:off+n], castagnoli), nil
	}
	crc := uint32(0)
	for end := off + n; off < end; {
		chunk := buf[:min(end-off, uint64(len(buf)))]
		got, err := file.ReadAt(chunk, int64(off))
		if got < len(chunk) {
			if err == nil || errors.Is(err, io.EOF) {
				return 0, fmt.Errorf("%w: file ends inside a section, at %d", ErrTruncated, off+uint64(got))
			}
			return 0, fmt.Errorf("%w: reading section bytes at %d: %v", ErrCorrupt, off, err)
		}
		crc = crc32.Update(crc, castagnoli, chunk)
		off += uint64(got)
	}
	return crc, nil
}

// section returns the single section with the given id, or an ErrCorrupt
// error when it is absent or duplicated.
func (f *rawFile) section(id uint32) ([]byte, error) {
	var found []byte
	seen := false
	for _, s := range f.secs {
		if s.id == id {
			if seen {
				return nil, fmt.Errorf("%w: duplicate section %d", ErrCorrupt, id)
			}
			found, seen = s.runs[0], true
		}
	}
	if !seen {
		return nil, fmt.Errorf("%w: missing section %d", ErrCorrupt, id)
	}
	return found, nil
}

// sections returns every section with the given id, in file order
// (repeated ids carry per-shard payloads).
func (f *rawFile) sections(id uint32) [][]byte {
	var out [][]byte
	for _, s := range f.secs {
		if s.id == id {
			out = append(out, s.runs[0])
		}
	}
	return out
}
