package policy

import (
	"sort"

	"gupster/internal/xpath"
)

// referenceDecide is Shield.Decide as first written: it decided on a copy
// of the shield's rules (DecisionPoint.Decide took one through
// Repository.Get), scored copied rules and ranked them with
// sort.SliceStable. It is kept only as the oracle the decision over
// pointers into the stored shield must agree with.
func referenceDecide(shield *Shield, req xpath.Path, ctx Context) Decision {
	s := &Shield{Owner: shield.Owner, Rules: append([]Rule(nil), shield.Rules...)}
	type scored struct {
		rule Rule
		rel  xpath.CoverRelation
	}
	var applicable []scored
	for _, r := range s.Rules {
		if !r.cond().Eval(ctx) {
			continue
		}
		rel := xpath.Covers(r.Path, req)
		if rel == xpath.CoverNone {
			continue
		}
		applicable = append(applicable, scored{r, rel})
	}
	if ctx.Requester != "" && ctx.Requester == s.Owner {
		applicable = append(applicable, scored{
			rule: Rule{ID: "owner", Path: req, Effect: Permit, Priority: ownerPriority},
			rel:  xpath.CoverFull,
		})
	}
	sort.SliceStable(applicable, func(i, j int) bool {
		if applicable[i].rule.Priority != applicable[j].rule.Priority {
			return applicable[i].rule.Priority > applicable[j].rule.Priority
		}
		return applicable[i].rule.Effect == Deny && applicable[j].rule.Effect == Permit
	})
	for _, a := range applicable {
		if a.rel != xpath.CoverFull {
			continue
		}
		if a.rule.Effect == Deny {
			return Decision{Effect: Deny, RuleID: a.rule.ID}
		}
		return Decision{Effect: Permit, Grants: []xpath.Path{req}, RuleID: a.rule.ID}
	}
	var grants []xpath.Path
	ruleID := ""
	for _, a := range applicable {
		if a.rel != xpath.CoverPartial || a.rule.Effect != Permit {
			continue
		}
		if s.deniedBy(a.rule.Path, ctx, a.rule.Priority) {
			continue
		}
		grants = append(grants, a.rule.Path)
		if ruleID == "" {
			ruleID = a.rule.ID
		}
	}
	if len(grants) == 0 {
		return Decision{Effect: Deny}
	}
	seen := make(map[string]bool, len(grants))
	out := grants[:0]
	for _, g := range grants {
		if k := g.String(); !seen[k] {
			seen[k] = true
			out = append(out, g)
		}
	}
	return Decision{Effect: Permit, Grants: out, RuleID: ruleID}
}
