package main

// Host probes: a fixed amount of CPU work and of small synced writes,
// timed when a run starts and when it ends, and the CPU time the
// hypervisor took from this machine ("steal" in /proc/stat) since the
// run started.  The report prints them; they are not metrics.  They
// show how fast the machine itself was during a run, so that a shift of
// the timings between two sets of runs can be told apart from a change
// in the program.

import (
	"crypto/sha256"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

type hostProbe struct {
	CPUMs   float64 `json:"cpu_ms"`   // SHA-256 of 16 MiB, median of 3
	FsyncMs float64 `json:"fsync_ms"` // 4 KiB write plus fsync, median of 15
	// StealPct is the share of all CPU time since the first probe that
	// the hypervisor gave to other guests; -1 where /proc/stat is
	// missing.
	StealPct float64 `json:"steal_pct"`
	steal    cpuTicks
}

// cpuTicks is the aggregate "cpu" line of /proc/stat: the steal ticks
// and the total over every column.
type cpuTicks struct{ steal, total uint64 }

func readCPUTicks() (cpuTicks, bool) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTicks{}, false
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return cpuTicks{}, false
	}
	var t cpuTicks
	for i, v := range f[1:] {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return cpuTicks{}, false
		}
		if i < 8 { // guest time is already counted in user and nice
			t.total += n
		}
		if i == 7 {
			t.steal = n
		}
	}
	return t, true
}

// stealSince sets p.StealPct from the ticks of an earlier probe.
func (p *hostProbe) stealSince(first hostProbe) {
	p.StealPct = -1
	if d := p.steal.total - first.steal.total; first.steal.total > 0 && p.steal.total > 0 && d > 0 {
		p.StealPct = 100 * float64(p.steal.steal-first.steal.steal) / float64(d)
	}
}

func probeHost(dir string) (hostProbe, error) {
	var p hostProbe
	p.steal, _ = readCPUTicks()
	data := make([]byte, 16<<20)
	var cpu []float64
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		sha256.Sum256(data)
		cpu = append(cpu, float64(time.Since(t0).Microseconds())/1000)
	}
	p.CPUMs = median(cpu)
	f, err := os.Create(filepath.Join(dir, "host-probe"))
	if err != nil {
		return p, err
	}
	defer os.Remove(f.Name())
	defer f.Close()
	block := make([]byte, 4096)
	var syncs []float64
	for i := 0; i < 15; i++ {
		t0 := time.Now()
		if _, err := f.Write(block); err != nil {
			return p, err
		}
		if err := f.Sync(); err != nil {
			return p, err
		}
		syncs = append(syncs, float64(time.Since(t0).Microseconds())/1000)
	}
	p.FsyncMs = median(syncs)
	return p, nil
}
