package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// cpuNow returns the process's CPU time (user + system, every thread)
// in nanoseconds. Every _s timing the benchmark reports is built from
// it: on a shared host, wall time also counts the time other tenants
// hold the cores.
func cpuNow() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err)) // cannot fail for RUSAGE_SELF
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

var wallBase = time.Now()

// wallNow returns monotonic wall nanoseconds since process start.
func wallNow() int64 { return int64(time.Since(wallBase)) }

// span is one traced call: its name, the trial it belongs to (-1 for
// work shared by all trials), its parent span (-1 for a root), and its
// wall and CPU intervals.
type span struct {
	Name   string `json:"name"`
	Trial  int32  `json:"trial"`
	Parent int32  `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	CPU0   int64  `json:"cpu_start_ns"`
	CPU1   int64  `json:"cpu_end_ns"`
}

func (s *span) cpu() int64 { return s.CPU1 - s.CPU0 }

// tracer keeps spans in memory; nothing is written until the run ends.
// A disabled tracer records nothing and its calls cost a branch.
type tracer struct {
	on    bool
	spans []span
	stack []int32
}

// begin opens a span as a child of the innermost open span and returns
// its handle (-1 when tracing is off).
func (t *tracer) begin(name string, trial int) int32 {
	if !t.on {
		return -1
	}
	parent := int32(-1)
	if len(t.stack) > 0 {
		parent = t.stack[len(t.stack)-1]
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{Name: name, Trial: int32(trial), Parent: parent, Start: wallNow(), CPU0: cpuNow()})
	t.stack = append(t.stack, id)
	return id
}

// end closes span id, which must be the innermost open span, and
// returns its CPU duration in nanoseconds (0 when tracing is off).
func (t *tracer) end(id int32) int64 {
	if id < 0 {
		return 0
	}
	s := &t.spans[id]
	s.CPU1 = cpuNow()
	s.End = wallNow()
	t.stack = t.stack[:len(t.stack)-1]
	return s.cpu()
}

// cpuByName sums the CPU time of the spans recorded since mark, by
// name (inclusive of children).
func (t *tracer) cpuByName(mark int) map[string]int64 {
	out := map[string]int64{}
	for i := mark; i < len(t.spans); i++ {
		out[t.spans[i].Name] += t.spans[i].cpu()
	}
	return out
}

// coverage returns the share of root span id's CPU time covered by the
// self times of the spans below it. Self time is a span's duration
// minus its children's, so the share is the root's duration minus the
// root's own self time, over the root's duration.
func (t *tracer) coverage(id int32) float64 {
	root := &t.spans[id]
	var children int64
	for i := int(id) + 1; i < len(t.spans); i++ {
		if t.spans[i].Parent == id {
			children += t.spans[i].cpu()
		}
	}
	if root.cpu() <= 0 {
		return 0
	}
	return float64(children) / float64(root.cpu())
}

// write stores every span as one JSON object per line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// peakRSSMB reads the resident-set high-water mark (VmHWM) in MiB.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseInt(f[1], 10, 64)
			return float64(kb) / 1024, err
		}
	}
	return 0, fmt.Errorf("VmHWM not in /proc/self/status")
}

// loadAvg returns the one-minute load average, or -1 where unreadable.
func loadAvg() float64 {
	data, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return -1
	}
	f := strings.Fields(string(data))
	if len(f) == 0 {
		return -1
	}
	v, err := strconv.ParseFloat(f[0], 64)
	if err != nil {
		return -1
	}
	return v
}
