// Command perfbench is netmark's end-to-end benchmark.  It runs the
// netmark server in-process on a real loopback listener (core.Open on an
// on-disk directory plus webdav.Server.ServeListener, default
// configuration), drives one named workload from a single load
// generator with at most nproc connections, checks every answer, and
// prints one JSON result line.
//
//	bash perfbench/run.sh --workload serve-zipf --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 a separate traced run gives the per-layer metrics.  The
// line before the result is a report with the run's fingerprint, input
// sizes and each metric's sample counts.  See NOTES.md.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"log"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

func main() {
	workload := flag.String("workload", "", "workload name: serve-zipf, serve-cold or ingest-serve")
	seed := flag.Int64("seed", 1, "workload seed; every input derives from it")
	seconds := flag.Int("seconds", 20, "measured seconds per run")
	trace := flag.Int("trace", 0, "1 for the traced per-layer run")
	work := flag.String("work", filepath.Join(".bench_build", "perfbench"), "directory for stores and span dumps")
	flag.Parse()
	if err := mainErr(*workload, *seed, *seconds, *trace, *work); err != nil {
		log.Fatalf("perfbench: %v", err)
	}
}

func mainErr(workload string, seed int64, seconds, trace int, work string) error {
	sp, err := findSpec(workload)
	if err != nil {
		return err
	}
	if seconds < 1 || (trace != 0 && trace != 1) {
		return fmt.Errorf("need --seconds >= 1 and --trace 0 or 1")
	}
	if err := os.MkdirAll(work, 0o755); err != nil {
		return err
	}
	out, err := run(sp, seed, seconds, trace == 1, work)
	if err != nil {
		return err
	}
	rep, err := json.Marshal(out.rep)
	if err != nil {
		return err
	}
	res, err := json.Marshal(out.res)
	if err != nil {
		return err
	}
	fmt.Printf("report %s\n%s\n", rep, res)
	return nil
}

// fingerprint identifies the machine, toolchain, code and inputs of a
// run.  The benchmark may run from a checkout that is not a git
// repository, so the source is also identified by a hash of the Go
// sources it builds.
type fingerprint struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Traced     bool   `json:"traced"`
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
	SourceHash string `json:"source_sha256"`
}

func takeFingerprint(workload string, seed int64, secs int, traced bool) (fingerprint, error) {
	f := fingerprint{
		Workload: workload, Seed: seed, Seconds: secs, Traced: traced,
		CPU: cpuModel(), NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go: runtime.Version(), Commit: "unknown",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				f.Commit = s.Value
			}
		}
	}
	var err error
	f.SourceHash, err = sourceHash(".")
	return f, err
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// sourceHash hashes every .go and go.mod file under root, skipping dot
// directories (the build output lives in one).
func sourceHash(root string) (string, error) {
	var paths []string
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			paths = append(paths, p)
		}
		return nil
	})
	if err != nil {
		return "", err
	}
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			return "", err
		}
		io.WriteString(h, filepath.ToSlash(p)+"\x00")
		_, err = io.Copy(h, f)
		f.Close()
		if err != nil {
			return "", err
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}
