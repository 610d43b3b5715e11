//go:build !unix

package snapshot

import "os"

// mapFile is the portable fallback: no memory mapping, the whole file is
// read into heap memory and sections are decoded by copying.
func mapFile(f *os.File, noMmap bool) (data []byte, mapped bool, err error) {
	data, err = os.ReadFile(f.Name())
	return data, false, err
}
