package main

import (
	"errors"
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"htapxplain/internal/explainsvc"
	"htapxplain/internal/gateway"
	"htapxplain/internal/htap"
	"htapxplain/internal/knowledge"
)

// The serving stack is built the way cmd/htapserve builds it with its
// default flags: the explanation service bootstraps its router and
// knowledge base on the (first) system, the gateway runs DefaultConfig
// (cost policy, 1024-template plan cache, workers = GOMAXPROCS), and the
// service's drift-driven maintenance loop runs at htapserve's defaults.
const (
	programSeed   = 7 // htapserve's -seed default: training, not inputs
	explainKBSize = 5000
	driftInterval = 2 * time.Second
)

// stack is one built serving stack.
type stack struct {
	sys *htap.System
	gw  *gateway.Gateway
	svc *explainsvc.Service
	kb  *knowledge.Base
	dir string // data directory of a durable stack
}

// htapConfig is the system config of a workload's deployment; a durable
// one keeps htapserve's default flush policy (2 ms / 256 KiB group
// commit, 4 MiB segments, 30 s checkpoints).
func htapConfig(dir string) htap.Config {
	cfg := htap.DefaultConfig()
	cfg.Durability.Dir = dir
	return cfg
}

// buildStack builds the workload's serving stack, durable under a fresh
// directory in stateDir when the workload asks for one.
func buildStack(w workloadDef, stateDir string, seed int64) (*stack, error) {
	st := &stack{}
	if w.durable {
		dir, err := os.MkdirTemp(stateDir, "data-")
		if err != nil {
			return nil, fmt.Errorf("data dir: %w", err)
		}
		st.dir = dir
	}
	var err error
	st.sys, err = htap.New(htapConfig(st.dir))
	if err != nil {
		st.close()
		return nil, fmt.Errorf("building system: %w", err)
	}
	router, kb, _, err := explainsvc.Bootstrap(st.sys, explainsvc.BootstrapConfig{
		TrainQueries: 80, Epochs: 40, KBSize: 20, Seed: programSeed,
	})
	if err != nil {
		st.close()
		return nil, fmt.Errorf("explain bootstrap: %w", err)
	}
	if w.explain {
		if err := growKB(kb, explainKBSize, seed); err != nil {
			st.close()
			return nil, fmt.Errorf("growing the knowledge base: %w", err)
		}
	}
	st.kb = kb
	st.gw = gateway.New(st.sys, gateway.DefaultConfig())
	// New builds the HNSW index over the grown base.
	st.svc, err = explainsvc.New(st.sys, st.gw, router, kb, explainsvc.Config{
		K: 2, Seed: programSeed, Window: 128, DriftThreshold: 0.85,
		RetrainEpochs: 40, CheckInterval: driftInterval,
	})
	if err != nil {
		st.close()
		return nil, fmt.Errorf("explain service: %w", err)
	}
	return st, nil
}

// close stops the stack and removes its data directory.
func (st *stack) close() {
	if st.svc != nil {
		st.svc.Close()
	}
	if st.gw != nil {
		st.gw.Stop()
	}
	if st.sys != nil {
		st.sys.Close()
	}
	if st.dir != "" {
		os.RemoveAll(st.dir)
	}
}

// growKB grows the base to target entries by re-adding curated entries
// under deterministically perturbed encodings: near-duplicate
// neighbourhoods, what similarity search sifts through at scale.
func growKB(kb *knowledge.Base, target int, seed int64) error {
	base := kb.Entries()
	if len(base) == 0 {
		return fmt.Errorf("no curated entries to grow from")
	}
	rng := rand.New(rand.NewSource(seed))
	for kb.Len() < target {
		src := base[rng.Intn(len(base))]
		enc := make([]float64, len(src.Encoding))
		for j, v := range src.Encoding {
			enc[j] = v + (rng.Float64()-0.5)*0.05
		}
		e := *src
		e.ID = 0
		e.Encoding = enc
		if _, err := kb.Add(e); err != nil {
			return err
		}
	}
	return nil
}

// copyTree copies the regular files under src into dst, the crash image
// of a data directory whose system is still running.
func copyTree(src, dst string) error {
	// a file the live system retires mid-walk is not part of the image
	return filepath.Walk(src, func(p string, info os.FileInfo, err error) error {
		if errors.Is(err, fs.ErrNotExist) {
			return nil
		}
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, p)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		if !info.Mode().IsRegular() {
			return nil
		}
		data, err := os.ReadFile(p)
		if errors.Is(err, fs.ErrNotExist) {
			return nil
		}
		if err != nil {
			return err
		}
		return os.WriteFile(target, data, 0o644)
	})
}
