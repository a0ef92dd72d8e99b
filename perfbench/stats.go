package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	rtmetrics "runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// meter accumulates the cost of the measured phase over its passes
// (start/stop pairs): wall time, process CPU, allocated bytes and the
// runtime's GC share of CPU, and keeps each pass's own figures.
type meter struct {
	wall     time.Duration
	cpu      time.Duration
	alloc    uint64
	gcCPU    float64
	totalCPU float64
	passes   []passStat

	t0          time.Time
	cpu0        time.Duration
	alloc0      uint64
	gc0, total0 float64
}

func (m *meter) start() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m.alloc0 = ms.TotalAlloc
	m.gc0, m.total0 = runtimeCPU()
	m.cpu0 = processCPU()
	m.t0 = time.Now()
}

// passStat is one pass's wall and CPU seconds and its call counts.
type passStat struct {
	Wall     float64 `json:"wall_s"`
	CPU      float64 `json:"cpu_s"`
	Calls    int     `json:"calls"`
	Answered int     `json:"answered"`
}

// stop closes a pass of calls calls, answered of them answered.
func (m *meter) stop(calls, answered int) {
	wall, cpu := time.Since(m.t0), processCPU()-m.cpu0
	m.wall += wall
	m.cpu += cpu
	m.passes = append(m.passes, passStat{Wall: wall.Seconds(), CPU: cpu.Seconds(), Calls: calls, Answered: answered})
	gc, total := runtimeCPU()
	m.gcCPU += gc - m.gc0
	m.totalCPU += total - m.total0
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m.alloc += ms.TotalAlloc - m.alloc0
}

// gcFrac is the GC's share of the CPU time the runtime accounted over
// the measured windows.
func (m *meter) gcFrac() float64 {
	if m.totalCPU <= 0 {
		return 0
	}
	return m.gcCPU / m.totalCPU
}

// processCPU returns the process's user+system CPU time.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB returns the process's peak resident set size in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6 // Linux reports KiB
}

// runtimeCPU reads the runtime's GC and total CPU-seconds estimates.
func runtimeCPU() (gc, total float64) {
	s := []rtmetrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	rtmetrics.Read(s)
	if s[0].Value.Kind() == rtmetrics.KindFloat64 {
		gc = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == rtmetrics.KindFloat64 {
		total = s[1].Value.Float64()
	}
	return gc, total
}

// retainedHeapMB forces a collection and returns the live heap in MB.
func retainedHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear
// interpolation between closest ranks; xs need not be sorted.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailLatency returns the highest percentile of xs with at least ten
// samples beyond it: the value with exactly ten larger samples and its
// percentile rank. With ten samples or fewer it returns the maximum.
func tailLatency(xs []float64) (value, pct float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0, 0
	}
	if n <= 10 {
		return s[n-1], 100
	}
	return s[n-11], 100 * float64(n-10) / float64(n)
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// hostFingerprint identifies the host, the code and the seed a result
// was measured with, so that noise on another host or another commit is
// not read as a regression.
func hostFingerprint(cfg config) map[string]string {
	return map[string]string{
		"go":         runtime.Version(),
		"cpu":        cpuModel(),
		"nproc":      strconv.Itoa(runtime.NumCPU()),
		"gomaxprocs": strconv.Itoa(runtime.GOMAXPROCS(0)),
		"commit":     gitCommit(cfg.root),
		"source":     sourceHash(cfg.root),
		"seed":       strconv.FormatInt(cfg.seed, 10),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit reads HEAD from root/.git without running git; a checkout
// exported without .git reports "none" and relies on the source hash.
func gitCommit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "none"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", filepath.FromSlash(ref))); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs"))
	if err != nil {
		return "none"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
			return sha
		}
	}
	return "none"
}

// sourceHash is a SHA-256 prefix over every go.mod and .go file under
// root (hidden directories skipped), identifying the measured code in
// a checkout that is not a git repository.
func sourceHash(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !d.Type().IsRegular() || (d.Name() != "go.mod" && !strings.HasSuffix(d.Name(), ".go")) {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		h.Write([]byte(filepath.ToSlash(rel)))
		h.Write([]byte{0})
		h.Write(b)
		h.Write([]byte{0})
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
