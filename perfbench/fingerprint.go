package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// fingerprint stamps a result with the code and machine it measured.
// Two results are comparable only when their machine fields match
// (see compare).
type fingerprint struct {
	// Commit identifies the measured code: the git HEAD when the
	// checkout is a git work tree, else a digest of its source files.
	Commit string `json:"commit"`
	// SourceDigest is the SHA-256 of every Go source and module file in
	// the checkout, outside build directories.
	SourceDigest string `json:"source_digest"`
	GOMAXPROCS   int    `json:"gomaxprocs"`
	NumCPU       int    `json:"nproc"`
	CPUModel     string `json:"cpu_model"`
	GoVersion    string `json:"go_version"`
	// GMDJParallel is the GMDJ_PARALLEL override in effect ("" = none,
	// so the DB runs at GOMAXPROCS).
	GMDJParallel string `json:"gmdj_parallel"`
}

// sameMachine reports whether two fingerprints describe the same
// machine and runtime configuration.
func (f fingerprint) sameMachine(o fingerprint) bool {
	return f.GOMAXPROCS == o.GOMAXPROCS && f.NumCPU == o.NumCPU && f.CPUModel == o.CPUModel &&
		f.GoVersion == o.GoVersion && f.GMDJParallel == o.GMDJParallel
}

func takeFingerprint() (fingerprint, error) {
	src, err := sourceDigest(".")
	if err != nil {
		return fingerprint{}, err
	}
	f := fingerprint{
		SourceDigest: src,
		Commit:       "tree:" + src[:16],
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		NumCPU:       runtime.NumCPU(),
		CPUModel:     cpuModel(),
		GoVersion:    runtime.Version(),
		GMDJParallel: os.Getenv("GMDJ_PARALLEL"),
	}
	if head := gitHead("."); head != "" {
		f.Commit = head
	}
	return f, nil
}

// sourceDigest hashes the path and bytes of every .go, go.mod and
// go.sum file under root, in path order, skipping dot directories and
// the build directory.
func sourceDigest(root string) (string, error) {
	var paths []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (strings.HasPrefix(name, ".") || path == filepath.Clean(buildDir())) {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(name, ".go") || name == "go.mod" || name == "go.sum" {
			paths = append(paths, path)
		}
		return nil
	})
	if err != nil {
		return "", err
	}
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		io.WriteString(h, p+"\x00")
		f, err := os.Open(p)
		if err != nil {
			return "", err
		}
		_, err = io.Copy(h, f)
		f.Close()
		if err != nil {
			return "", err
		}
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// gitHead resolves .git/HEAD without running git ("" when the checkout
// is not a git work tree or HEAD cannot be resolved from loose refs).
func gitHead(root string) string {
	raw, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return ""
	}
	head := strings.TrimSpace(string(raw))
	ref, ok := strings.CutPrefix(head, "ref: ")
	if !ok {
		return head
	}
	if raw, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(raw))
	}
	f, err := os.Open(filepath.Join(root, ".git", "packed-refs"))
	if err != nil {
		return ""
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if sha, name, ok := strings.Cut(sc.Text(), " "); ok && name == ref {
			return sha
		}
	}
	return ""
}

func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
