package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// releaseSetup returns what setup left on the heap to the OS, so the
// measured phase starts from the program's own footprint.
func releaseSetup() {
	runtime.GC()
	debug.FreeOSMemory()
}

// resetPeak collects garbage and resets the kernel's resident-set
// high-water mark (VmHWM) to the current resident set, so the next peakRSS
// covers only what runs from here on. Freed heap the runtime still holds
// stays resident and reusable, as it would in a long-lived process.
func resetPeak() error {
	runtime.GC()
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("reset VmHWM: %w", err)
	}
	return nil
}

// cpuTime returns the CPU time, user and system, that every thread of the
// process has used so far.
func cpuTime() (time.Duration, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), nil
}

// peakRSS reads VmHWM, the process's resident-set high-water mark, in bytes.
func peakRSS() (int64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb << 10, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// cpuStat returns the machine's stolen and total CPU time in clock ticks
// from /proc/stat (zeros where it cannot be read). Steal is time a
// hypervisor ran something else on this machine's CPUs: the share of it
// during a run tells a noisy host from a slow program.
func cpuStat() (steal, total uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:] {
		v, _ := strconv.ParseUint(f, 10, 64)
		if i < 8 { // user nice system idle iowait irq softirq steal; guest time is already in user
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// provenance records what produced a result: the source revision, the run's
// settings and the machine's Go runtime shape.
func provenance(p params) map[string]any {
	return map[string]any{
		"commit":        commit(),
		"source_sha256": sourceDigest("."),
		"workload":      p.workload,
		"seed":          p.seed,
		"seconds":       p.window.Seconds(),
		"trace":         p.trace,
		"scale":         p.scale,
		"go_version":    runtime.Version(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"nproc":         runtime.NumCPU(),
		"time":          time.Now().UTC().Format(time.RFC3339),
	}
}

// commit returns the VCS revision stamped into the binary, or "unknown" when
// it was built outside a repository (source_sha256 identifies the code then).
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// sourceDigest hashes the path and content of every Go source and go.mod
// file under root (the repository root when run through run.sh), skipping
// hidden and testdata directories, so two results can be told apart by the
// code that produced them.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") && name != "go.mod" {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s\x00%d\x00", filepath.ToSlash(path), len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}
