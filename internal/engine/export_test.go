package engine

import "unsafe"

// DynMemoBytes reports the bytes worker 0's dynamic memo holds — the
// memo the asynchronous loop and the synchronous output tally use: the
// per-state record table and the side list of rows the records cannot
// pack.
func DynMemoBytes(s *Scratch) int {
	return int(unsafe.Sizeof(uint64(0)))*cap(s.dss[0].recs) + int(unsafe.Sizeof(s.dss[0].side))*cap(s.dss[0].side)
}
