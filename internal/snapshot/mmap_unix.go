//go:build unix

package snapshot

import (
	"os"
	"syscall"
)

// mapFile returns the bytes of the open snapshot file f. On unix the
// default path memory-maps the file read-only (PROT_READ, MAP_SHARED):
// the mapping outlives the descriptor and is intentionally never unmapped
// — the loaded world's zero-copy slices alias it for the life of the
// process. Mapping faults in no page; the pages a caller reads become
// resident as it reads them. noMmap (or an empty file, which cannot be
// mapped) reads into the heap instead; mapped=false then tells the caller
// aliasing is still fine but the memory is ordinary writable heap.
func mapFile(f *os.File, noMmap bool) (data []byte, mapped bool, err error) {
	if noMmap {
		data, err = os.ReadFile(f.Name())
		return data, false, err
	}
	fi, err := f.Stat()
	if err != nil {
		return nil, false, err
	}
	size := fi.Size()
	if size == 0 {
		return nil, false, nil
	}
	if int64(int(size)) != size {
		data, err = os.ReadFile(f.Name())
		return data, false, err
	}
	data, err = syscall.Mmap(int(f.Fd()), 0, int(size), syscall.PROT_READ, syscall.MAP_SHARED)
	if err != nil {
		// Filesystems without mmap support degrade to the copying path.
		data, err = os.ReadFile(f.Name())
		return data, false, err
	}
	return data, true, nil
}
