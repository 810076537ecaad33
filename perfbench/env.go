package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

// environment is recorded beside every result.
type environment struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	Commit     string `json:"commit"`
	// SourceSHA256 hashes every .go and go.mod file under the working
	// directory, so results from a checkout without git history still name
	// the code they measured.
	SourceSHA256 string `json:"source_sha256"`
}

func readEnv() (environment, error) {
	sum, err := sourceHash(".")
	if err != nil {
		return environment{}, err
	}
	return environment{
		NumCPU:       runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		GoVersion:    runtime.Version(),
		CPUModel:     procField("/proc/cpuinfo", "model name"),
		Commit:       gitCommit("."),
		SourceSHA256: sum,
	}, nil
}

// procField returns the first "key : value" line's value for key, or
// "unknown" when the file or key is absent.
func procField(path, key string) string {
	f, err := os.Open(path)
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == key {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit resolves HEAD from a .git directory without running git, or
// returns "unknown" (benchmark checkouts need not be repositories).
func gitCommit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	return "unknown"
}

// sourceHash hashes path and content of every Go source and go.mod below
// root in lexical order, skipping hidden directories (build caches).
func sourceHash(root string) (string, error) {
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
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		h.Write([]byte(path + "\x00"))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// peakRSSMiB is the process's resident-set high-water mark (VmHWM).
func peakRSSMiB() float64 {
	v := procField("/proc/self/status", "VmHWM")
	kb, err := strconv.ParseFloat(strings.TrimSuffix(v, " kB"), 64)
	if err != nil {
		return 0
	}
	return kb / 1024
}
