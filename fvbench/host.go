package main

import (
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"
)

// host is the block every run records once, so a later efficiency or
// roofline claim can cite a bandwidth ceiling measured in the same run.
type host struct {
	CPUModel   string `json:"cpu_model"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	// LLCBytes is the last-level cache size (0 when the host does not
	// report it; the triad then assumes 32 MiB).
	LLCBytes int `json:"llc_bytes"`
	// TriadArrayBytes is the size of each of the triad's three arrays:
	// four times the LLC, so the triad streams from memory.
	TriadArrayBytes int     `json:"triad_array_bytes"`
	TriadGBs        float64 `json:"triad_gbs"`
	// CalibMs times a fixed single-thread loop: a reading of the CPU's
	// speed at the end of the run, for telling host drift from a change.
	CalibMs float64 `json:"calib_ms"`
}

// defaultLLC stands in when the host does not report its LLC.
const defaultLLC = 32 << 20

// probeHost fills the host block; arrayBytes sizes the triad's arrays (0
// selects four times the LLC).
func probeHost(arrayBytes int) host {
	h := host{
		CPUModel:   cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		LLCBytes:   llcBytes(),
	}
	llc := h.LLCBytes
	if llc == 0 {
		llc = defaultLLC
	}
	h.TriadArrayBytes = arrayBytes
	if arrayBytes == 0 {
		h.TriadArrayBytes = 4 * llc
	}
	h.TriadGBs = triadGBs(h.TriadArrayBytes/8, nproc())
	h.CalibMs = calibMs()
	return h
}

// calibSink keeps the calibration loop's result live.
var calibSink float64

// calibMs times 2e7 dependent multiply-adds.
func calibMs() float64 {
	start := time.Now()
	x := 1.0
	for i := 0; i < 20_000_000; i++ {
		x = x*1.0000001 + 1e-9
	}
	calibSink = x
	return ms(time.Since(start))
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// llcBytes reads the largest cache level CPU 0 reports.
func llcBytes() int {
	best, bestLevel := 0, 0
	for i := 0; i < 8; i++ {
		dir := "/sys/devices/system/cpu/cpu0/cache/index" + strconv.Itoa(i) + "/"
		lv, err1 := os.ReadFile(dir + "level")
		sz, err2 := os.ReadFile(dir + "size")
		if err1 != nil || err2 != nil {
			continue
		}
		level, _ := strconv.Atoi(strings.TrimSpace(string(lv)))
		s := strings.TrimSpace(string(sz))
		mult := 1
		switch {
		case strings.HasSuffix(s, "K"):
			mult, s = 1<<10, strings.TrimSuffix(s, "K")
		case strings.HasSuffix(s, "M"):
			mult, s = 1<<20, strings.TrimSuffix(s, "M")
		}
		n, err := strconv.Atoi(s)
		if err == nil && level >= bestLevel {
			best, bestLevel = n*mult, level
		}
	}
	return best
}

// triadGBs runs the STREAM triad a[i] = b[i] + s·c[i] over n-element float64
// arrays on the given thread count and returns the best of five passes, in
// GB/s counting 24 bytes per element.
func triadGBs(n, threads int) float64 {
	a, b, c := make([]float64, n), make([]float64, n), make([]float64, n)
	pass := func(s float64) {
		var wg sync.WaitGroup
		for t := 0; t < threads; t++ {
			lo, hi := t*n/threads, (t+1)*n/threads
			wg.Add(1)
			go func() {
				defer wg.Done()
				aa, bb, cc := a[lo:hi], b[lo:hi], c[lo:hi]
				for i := range aa {
					aa[i] = bb[i] + s*cc[i]
				}
			}()
		}
		wg.Wait()
	}
	for i := range b {
		b[i], c[i] = 1, 2 // touched, or reads would hit the shared zero page
	}
	pass(1)
	best := time.Duration(1 << 62)
	for k := 0; k < 5; k++ {
		start := time.Now()
		pass(3)
		best = min(best, time.Since(start))
	}
	return float64(24*n) / best.Seconds() / 1e9
}
