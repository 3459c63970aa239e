package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// fingerprint identifies the host and code a result was measured on.
// Wall-clock metrics are comparable only between results whose
// fingerprints are equal apart from the calibration time.
type fingerprint struct {
	CPUModel   string `json:"cpu_model"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	// GitSHA is the commit when the benchmark runs inside a git checkout;
	// SourceHash is a hash of every .go file and go.mod under the root,
	// which identifies the code also where there is no git metadata.
	GitSHA     string `json:"git_sha"`
	SourceHash string `json:"source_hash"`
	// DataDirFS is the filesystem type under the service's data dir
	// (fsync cost depends on it); empty for in-process workloads.
	DataDirFS string `json:"data_dir_fs,omitempty"`
	// CalibrationMs is the median time of a fixed memory-bound loop run
	// before the workload. It is not a metric: on a shared host it shows
	// how fast the machine ran while a figure was taken.
	CalibrationMs float64 `json:"calibration_ms"`
}

func hostFingerprint(root, dataDir string, calibrationMs float64) fingerprint {
	fp := fingerprint{
		CalibrationMs: calibrationMs,
		CPUModel:      cpuModel(),
		NProc:         runtime.NumCPU(),
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		GoVersion:     runtime.Version(),
		GitSHA:        gitSHA(root),
		SourceHash:    sourceHash(root),
	}
	if dataDir != "" {
		fp.DataDirFS = fsType(dataDir)
	}
	return fp
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// gitSHA is the checkout's commit, or "none" when root is not itself a
// git checkout (git would otherwise answer for an enclosing repository).
func gitSHA(root string) string {
	if _, err := os.Stat(filepath.Join(root, ".git")); err != nil {
		return "none"
	}
	out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output()
	if err != nil {
		return "none"
	}
	return strings.TrimSpace(string(out))
}

// sourceHash hashes the path and content of every .go file and go.mod
// under root, skipping hidden directories (build output lives there).
func sourceHash(root string) string {
	var paths []string
	filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			paths = append(paths, p)
		}
		return nil
	})
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		rel, _ := filepath.Rel(root, p)
		io.WriteString(h, rel+"\x00")
		if f, err := os.Open(p); err == nil {
			io.Copy(h, f)
			f.Close()
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// fsMagic names the statfs magic numbers of common Linux filesystems.
var fsMagic = map[int64]string{
	0xef53:     "ext4",
	0x58465342: "xfs",
	0x9123683e: "btrfs",
	0x01021994: "tmpfs",
	0x794c7630: "overlayfs",
	0x6969:     "nfs",
	0x65735546: "fuse",
	0x2fc12fc1: "zfs",
	0xf2f52010: "f2fs",
}

func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	if name, ok := fsMagic[int64(st.Type)]; ok {
		return name
	}
	return "0x" + strconv.FormatInt(int64(st.Type), 16)
}

// peakRSSMB reads a process's peak resident set size (VmHWM) in MiB from
// /proc; pid 0 means this process.
func peakRSSMB(pid int) float64 {
	path := "/proc/self/status"
	if pid > 0 {
		path = "/proc/" + strconv.Itoa(pid) + "/status"
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// calibrate times a fixed pseudo-random walk over 16 MiB, three times,
// and returns the median in milliseconds.
func calibrate() float64 {
	buf := make([]uint32, 1<<22)
	var times []float64
	for rep := 0; rep < 3; rep++ {
		t0 := time.Now()
		x := uint32(rep)
		for i := 0; i < 1<<22; i++ {
			x = buf[x&(1<<22-1)] + x*1664525 + 1013904223
			buf[i] = x
		}
		times = append(times, ms(time.Since(t0)))
	}
	return median(times)
}
