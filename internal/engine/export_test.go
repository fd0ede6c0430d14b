package engine

import "unsafe"

// DynMemoBytes reports the bytes the scratch's asynchronous dynamic
// memo holds: the per-state record table and the side list of rows the
// records cannot pack.
func DynMemoBytes(s *Scratch) int {
	return int(unsafe.Sizeof(uint64(0)))*cap(s.ds.recs) + int(unsafe.Sizeof(s.ds.side))*cap(s.ds.side)
}
