package main

import (
	"bytes"
	"encoding/json"
	"fmt"

	hypar "repro"
	"repro/internal/experiments"
	"repro/internal/runner"
)

// planReply is the part of a /v1/plan or /v1/evaluate reply the
// re-derivation compares.
type planReply struct {
	Plan struct {
		Layers []struct {
			Name   string `json:"name"`
			Assign string `json:"assign"`
		} `json:"layers"`
	} `json:"plan"`
	Stats *struct {
		StepSeconds float64 `json:"stepSeconds"`
	} `json:"stats"`
}

// pointReply is one line of an explore stream.
type pointReply struct {
	Type    string  `json:"type"`
	Code    int     `json:"code"`
	Gain    float64 `json:"gain"`
	IsHyPar bool    `json:"isHyPar"`
}

// verify re-derives a reply through the library facade — a fresh
// Evaluator for evaluate, hypar.NewPlan for plan, a fresh serial
// experiments.Session for explore — from the generator's own model and
// config structs (never the request body), and requires the step time,
// every layer's assignment string and every sweep point to match
// exactly.
func verify(req *request, body []byte) error {
	m, err := req.resolveModel()
	if err != nil {
		return err
	}
	cfg := req.config()
	st := req.strategyValue()
	switch req.endpoint {
	case "evaluate", "plan":
		var got planReply
		if err := json.Unmarshal(body, &got); err != nil {
			return fmt.Errorf("reply: %w", err)
		}
		var plan *hypar.Plan
		if req.endpoint == "evaluate" {
			res, err := hypar.NewEvaluator().Run(m, st, cfg)
			if err != nil {
				return err
			}
			if got.Stats == nil || got.Stats.StepSeconds != res.Stats.StepSeconds {
				return fmt.Errorf("stepSeconds: reply %v, facade %v", got.Stats, res.Stats.StepSeconds)
			}
			plan = res.Plan
		} else if plan, err = hypar.NewPlan(m, st, cfg); err != nil {
			return err
		}
		if len(got.Plan.Layers) != len(m.Layers) {
			return fmt.Errorf("reply has %d layers, model %d", len(got.Plan.Layers), len(m.Layers))
		}
		for l, gl := range got.Plan.Layers {
			if gl.Name != m.Layers[l].Name || gl.Assign != plan.LayerString(l) {
				return fmt.Errorf("layer %d: reply %s=%s, facade %s=%s", l, gl.Name, gl.Assign, m.Layers[l].Name, plan.LayerString(l))
			}
		}
		return nil
	case "explore":
		sess := experiments.NewSessionWithPool(cfg.Canonical(), runner.New(1))
		exp, err := sess.Explore(m, req.free, nil)
		if err != nil {
			return err
		}
		lines := bytes.Split(bytes.TrimSuffix(body, []byte{'\n'}), []byte{'\n'})
		if len(lines) != len(exp.Points)+2 {
			return fmt.Errorf("stream has %d lines, facade %d points", len(lines), len(exp.Points))
		}
		for i, pt := range exp.Points {
			var got pointReply
			if err := json.Unmarshal(lines[i+1], &got); err != nil {
				return fmt.Errorf("point %d: %w", i, err)
			}
			if got.Type != "point" || got.Code != pt.Code || got.Gain != pt.Gain || got.IsHyPar != pt.IsHyPar {
				return fmt.Errorf("point %d: reply %+v, facade %+v", i, got, pt)
			}
		}
		var sum struct {
			HyPar pointReply `json:"hypar"`
		}
		if err := json.Unmarshal(lines[len(lines)-1], &sum); err != nil {
			return fmt.Errorf("summary: %w", err)
		}
		if !sum.HyPar.IsHyPar || sum.HyPar.Code != exp.HyPar.Code {
			return fmt.Errorf("summary HyPar point %+v, facade code %d", sum.HyPar, exp.HyPar.Code)
		}
		return nil
	}
	return fmt.Errorf("unknown endpoint %q", req.endpoint)
}
