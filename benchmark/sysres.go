package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
)

// selfCPUSeconds is this process's user+system CPU time.
func selfCPUSeconds() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime), nil
}

// clockTick is the kernel's USER_HZ, the unit of /proc/<pid>/stat times;
// it has been 100 on every Linux port since 2.6.
const clockTick = 100

// procCPUSeconds is the user+system CPU time of a live child, read from
// /proc/<pid>/stat: getrusage(RUSAGE_CHILDREN) only counts children that
// have already been waited for, which is too late for a server that lives
// through the timed phase.
func procCPUSeconds(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) is parenthesised and may contain spaces;
	// fields 14 and 15 (utime, stime) are counted from after it.
	s := string(b)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, fmt.Errorf("/proc/%d/stat: no command field", pid)
	}
	f := strings.Fields(s[i+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("/proc/%d/stat: %d fields", pid, len(f))
	}
	ut, err1 := strconv.ParseUint(f[11], 10, 64)
	st, err2 := strconv.ParseUint(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("/proc/%d/stat: bad cpu fields %q %q", pid, f[11], f[12])
	}
	return float64(ut+st) / clockTick, nil
}

// peakRSSMiB is the resident-set high-water mark (VmHWM) of a process.
func peakRSSMiB(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) < 1 {
				break
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("/proc/%d/status: no VmHWM", pid)
}

// cacheSizes reads cpu0's cache hierarchy, e.g. {"L1d": "48K", "L3": "55296K"}.
func cacheSizes() map[string]string {
	out := map[string]string{}
	dirs, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*")
	for _, d := range dirs {
		read := func(name string) string {
			b, err := os.ReadFile(filepath.Join(d, name))
			if err != nil {
				return ""
			}
			return strings.TrimSpace(string(b))
		}
		level, typ, size := read("level"), read("type"), read("size")
		if level == "" || size == "" {
			continue
		}
		name := "L" + level
		switch typ {
		case "Data":
			name += "d"
		case "Instruction":
			name += "i"
		}
		out[name] = size
	}
	return out
}

// llcBytes is the size of the largest cache cacheSizes found (0 if none).
func llcBytes() int64 {
	var max int64
	for _, s := range cacheSizes() {
		mult := int64(1)
		switch {
		case strings.HasSuffix(s, "K"):
			mult, s = 1<<10, strings.TrimSuffix(s, "K")
		case strings.HasSuffix(s, "M"):
			mult, s = 1<<20, strings.TrimSuffix(s, "M")
		}
		n, err := strconv.ParseInt(s, 10, 64)
		if err == nil && n*mult > max {
			max = n * mult
		}
	}
	return max
}

// envelope is the run description every output of the benchmark carries —
// the common header ROADMAP item 1 asks all BENCH files to share.
type envelope struct {
	Schema     string            `json:"schema"`
	GitSHA     string            `json:"git_sha"`
	GoVersion  string            `json:"go_version"`
	NumCPU     int               `json:"num_cpu"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	Caches     map[string]string `json:"cache_sizes"`
	Seed       uint64            `json:"seed"`
	Seconds    float64           `json:"seconds"`
	Smoke      bool              `json:"smoke"`
	Trace      bool              `json:"trace"`
}

const schemaName = "exacoll-benchmark/1"

func newEnvelope(cfg runConfig) envelope {
	return envelope{
		Schema:     schemaName,
		GitSHA:     gitSHA(),
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Caches:     cacheSizes(),
		Seed:       cfg.seed,
		Seconds:    cfg.seconds,
		Smoke:      cfg.smoke,
		Trace:      cfg.trace,
	}
}

// gitSHA names the commit under test: the VCS stamp of the binary when go
// recorded one, else .git/HEAD of the enclosing checkout, else "unknown"
// (the driver's checkout is not a git repository).
func gitSHA() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" && s.Value != "" {
				return s.Value
			}
		}
	}
	dir, err := os.Getwd()
	if err != nil {
		return "unknown"
	}
	for {
		if b, err := os.ReadFile(filepath.Join(dir, ".git", "HEAD")); err == nil {
			head := strings.TrimSpace(string(b))
			if ref, ok := strings.CutPrefix(head, "ref: "); ok {
				if b, err := os.ReadFile(filepath.Join(dir, ".git", ref)); err == nil {
					return strings.TrimSpace(string(b))
				}
				return "unknown"
			}
			return head
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "unknown"
		}
		dir = parent
	}
}
