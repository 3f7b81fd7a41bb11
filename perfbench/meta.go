package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// prov is the host and provenance block printed with every result.
type prov struct {
	GoVersion  string `json:"go_version"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	Workers    int    `json:"workers"`
	Clients    int    `json:"clients"`
	Workload   string `json:"workload"`
	Seed       uint64 `json:"seed"`
	Commit     string `json:"commit"`
	SourceSHA  string `json:"source_sha256"`
}

func provenance(root, workload string, seed uint64) prov {
	p := prov{
		GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel: cpuModel(), Workers: workers(), Workload: workload, Seed: seed,
		Commit: gitCommit(root), SourceSHA: sourceDigest(root),
	}
	if workload == "serve-mix" {
		p.Clients = serveClients
	}
	return p
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

// stealTicks reads the host's stolen CPU time, in USER_HZ ticks, from
// /proc/stat (0 where it is unavailable).
func stealTicks() uint64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	v, _ := strconv.ParseUint(f[8], 10, 64)
	return v
}

// gitCommit reads HEAD from the checkout's .git directory, if any.
func gitCommit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown (not a git checkout)"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs")); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
				return sha
			}
		}
	}
	return "unknown (" + ref + ")"
}

// sourceDigest hashes every Go source file and go.mod under root, so a
// result names the exact code it measured even outside git.
func sourceDigest(root string) string {
	var paths []string
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.Type().IsRegular() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			paths = append(paths, path)
		}
		return nil
	})
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, p)
		fmt.Fprintf(h, "%s %d\n", rel, len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// parseSeeds reads a list like "0-40,1009".
func parseSeeds(s string) ([]uint64, error) {
	var out []uint64
	for _, part := range strings.Split(s, ",") {
		lo, hi, isRange := strings.Cut(part, "-")
		a, err := strconv.ParseUint(strings.TrimSpace(lo), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad seed %q", part)
		}
		b := a
		if isRange {
			if b, err = strconv.ParseUint(strings.TrimSpace(hi), 10, 64); err != nil || b < a {
				return nil, fmt.Errorf("bad seed range %q", part)
			}
		}
		for x := a; x <= b; x++ {
			out = append(out, x)
		}
	}
	return out, nil
}

// recordDigests renders the evaluation through expt.All for each seed
// and stores the digests in root/perfbench/meta.json. It first checks
// that the benchmark's own render loop reproduces expt.All.
func recordDigests(ctx context.Context, m *meta, seeds, root string) error {
	list, err := parseSeeds(seeds)
	if err != nil {
		return err
	}
	work, err := os.MkdirTemp(filepath.Join(root, ".bench_build"), "digests-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)
	if m.Renders == nil {
		m.Renders = map[string]string{}
	}
	for i, seed := range list {
		ref, err := referenceRender(ctx, seed, workers())
		if err != nil {
			return err
		}
		if i == 0 {
			p := &paperEnv{seed: seed, workers: workers(), work: work}
			r, err := p.rep(ctx, nil)
			if err != nil {
				return err
			}
			if r.render != ref {
				return fmt.Errorf("seed %d: the benchmark's render loop differs from expt.All", seed)
			}
		}
		m.Renders[strconv.FormatUint(seed, 10)] = digest(ref)
		fmt.Printf("seed %d: %s\n", seed, digest(ref))
	}
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	enc.SetEscapeHTML(false)
	enc.SetIndent("", "  ")
	if err := enc.Encode(m); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(root, "perfbench", "meta.json"), b.Bytes(), 0o644)
}

// checkAllSeeds runs every workload briefly on the default and the
// held-out seed; any failed operation fails the check.
func checkAllSeeds(ctx context.Context, m meta, build, root string) int {
	code := 0
	for _, w := range m.Workloads {
		for _, seed := range []uint64{m.DefaultSeed, m.HeldOutSeed} {
			res, err := runWorkload(ctx, m, build, w.Name, seed, 1, false, root)
			switch {
			case err != nil:
				fmt.Printf("check %s seed %d: error: %v\n", w.Name, seed, err)
				code = 1
			case !res.Correct:
				fmt.Printf("check %s seed %d: %d of %d failed\n", w.Name, seed, res.Failed, res.Attempted)
				code = 1
			default:
				fmt.Printf("check %s seed %d: clean, %d attempted, failed_ratio 0\n", w.Name, seed, res.Attempted)
			}
		}
	}
	return code
}
