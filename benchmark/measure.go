package main

import (
	"fmt"
	"os"
	goruntime "runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// sut is one system under test plus the load the benchmark puts on it.
// Its inputs are already built from the seed when the constructor returns.
type sut interface {
	// start does one cold set-up: it launches the system under test and
	// returns after its first correct op.
	start() error
	// stop tears the system under test down; start may follow.
	stop()
	// op runs one operation as client c and checks its output. sp is nil
	// in untraced slices.
	op(c int, sp *opSpans) error
	// cpu is the user+sys CPU time the system under test has used so far.
	cpu() (time.Duration, error)
	// peakRSSMB is the system under test's VmHWM.
	peakRSSMB() (float64, error)
	// spanNames lists the spans a traced op records, in reporting order.
	spanNames() []string
}

const (
	sliceDur = 1500 * time.Millisecond
	setups   = 5
)

// clients is the closed loop's width: one caller per core, at most two, so
// the load generator never outnumbers the cores it shares with the server.
func clients() int {
	return min(goruntime.NumCPU(), 2)
}

// sliceResult is what one work slice measured, un-normalised.
type sliceResult struct {
	calBeforeMs, calAfterMs float64
	latMs                   []float64 // per-op latency, every client
	elapsedS                float64   // mean over clients of their own busy time
	cpuS                    float64   // system under test's CPU over the slice
	failed                  int
	traced                  bool
	firstErr                error
}

func (s *sliceResult) factor() float64 { return speedFactor(s.calBeforeMs, s.calAfterMs) }

// runSlice drives w closed-loop from n clients for dur. Each client stops
// after the op during which the deadline passes. log is nil for an
// untraced slice.
func runSlice(w sut, name string, n int, dur time.Duration, log *spanLog) (sliceResult, error) {
	res := sliceResult{traced: log != nil}
	cpu0, err := w.cpu()
	if err != nil {
		return res, err
	}
	type clientResult struct {
		lat     []float64
		elapsed time.Duration
		failed  int
		err     error
	}
	out := make([]clientResult, n)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			r := &out[c]
			for {
				var sp *opSpans
				if log != nil {
					sp = log.beginOp(name)
				}
				t0 := time.Now()
				err := w.op(c, sp)
				lat := time.Since(t0)
				sp.end()
				if err != nil {
					r.failed++
					if r.err == nil {
						r.err = err
					}
				} else {
					r.lat = append(r.lat, float64(lat)/1e6)
				}
				if r.elapsed = time.Since(start); r.elapsed >= dur {
					return
				}
			}
		}(c)
	}
	wg.Wait()
	cpu1, err := w.cpu()
	if err != nil {
		return res, err
	}
	res.cpuS = (cpu1 - cpu0).Seconds()
	for _, r := range out {
		res.latMs = append(res.latMs, r.lat...)
		res.elapsedS += r.elapsed.Seconds() / float64(n)
		res.failed += r.failed
		if res.firstErr == nil {
			res.firstErr = r.err
		}
	}
	return res, nil
}

// timedPhase alternates calibrations and work slices of length slice for
// total. With a span log, odd slices are traced, so traced and untraced
// throughput are measured side by side under the same host conditions.
func timedPhase(w sut, name string, total, slice time.Duration, log *spanLog) ([]sliceResult, error) {
	var slices []sliceResult
	cal := calibrate()
	// A traced phase runs at least one slice of each kind however short it is.
	for start := time.Now(); time.Since(start) < total || (log != nil && len(slices) < 2); {
		var sl *spanLog
		if log != nil && len(slices)%2 == 1 {
			sl = log
		}
		dur := min(slice, max(total-time.Since(start), slice/3))
		res, err := runSlice(w, name, clients(), dur, sl)
		if err != nil {
			return nil, err
		}
		res.calBeforeMs = cal
		cal = calibrate()
		res.calAfterMs = cal
		slices = append(slices, res)
	}
	return slices, nil
}

// measureSetups does n cold set-ups, tearing down after all but the last,
// and returns each one's duration in seconds at reference speed and raw.
func measureSetups(w sut, n int) (norm, raw []float64, err error) {
	cal := calibrate()
	for i := 0; i < n; i++ {
		if i > 0 {
			w.stop()
		}
		t0 := time.Now()
		if err := w.start(); err != nil {
			return nil, nil, fmt.Errorf("set-up %d: %w", i+1, err)
		}
		d := time.Since(t0).Seconds()
		before := cal
		cal = calibrate()
		raw = append(raw, d)
		norm = append(norm, d*speedFactor(before, cal))
	}
	return norm, raw, nil
}

// summary aggregates the slices of one kind (traced or not) of a run.
type summary struct {
	ops, failed                    int
	opsPerS, p50Ms, p90Ms, cpuMsOp float64 // at reference speed
	rawOpsPerS, rawP50Ms           float64
	calMs, speedMin, speedMax      float64
	firstErr                       error
	normElapsedS, elapsedS         float64 // Σ slice lengths, normalised and raw
}

func summarize(slices []sliceResult, traced bool) summary {
	var s summary
	var normLat, rawLat, cals []float64
	var normCPUS float64
	for i := range slices {
		sl := &slices[i]
		if sl.traced != traced {
			continue
		}
		f := sl.factor()
		for _, l := range sl.latMs {
			normLat = append(normLat, l*f)
		}
		rawLat = append(rawLat, sl.latMs...)
		s.normElapsedS += sl.elapsedS * f
		s.elapsedS += sl.elapsedS
		normCPUS += sl.cpuS * f
		s.ops += len(sl.latMs)
		s.failed += sl.failed
		if s.firstErr == nil {
			s.firstErr = sl.firstErr
		}
		speed := f
		if s.speedMin == 0 || speed < s.speedMin {
			s.speedMin = speed
		}
		s.speedMax = max(s.speedMax, speed)
		cals = append(cals, sl.calBeforeMs, sl.calAfterMs)
	}
	if s.ops == 0 {
		return s
	}
	s.opsPerS = float64(s.ops) / s.normElapsedS
	s.p50Ms = percentile(normLat, 50)
	s.p90Ms = percentile(normLat, 90)
	s.cpuMsOp = normCPUS * 1e3 / float64(s.ops)
	s.rawOpsPerS = float64(s.ops) / s.elapsedS
	s.rawP50Ms = percentile(rawLat, 50)
	s.calMs = mean(cals)
	return s
}

// selfCPU is this process's user+sys CPU time.
func selfCPU() (time.Duration, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, err
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), nil
}

// procCPU is process pid's user+sys CPU time, from /proc/<pid>/stat
// (fields 14 and 15, in clock ticks of 1/100 s).
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may contain spaces; fields are counted
	// from the closing parenthesis.
	rest := string(b[strings.LastIndexByte(string(b), ')')+1:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, fmt.Errorf("/proc/%d/stat: short line", pid)
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("/proc/%d/stat: bad cpu fields", pid)
	}
	return time.Duration(utime+stime) * 10 * time.Millisecond, nil
}

// peakRSSMB is VmHWM of process proc ("self" or a pid) in MB.
func peakRSSMB(proc string) (float64, error) {
	b, err := os.ReadFile("/proc/" + proc + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("/proc/%s/status: %w", proc, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("/proc/%s/status: no VmHWM", proc)
}
