package store

import (
	"strings"

	"gupster/internal/xmltree"
	"gupster/internal/xpath"
)

// referenceLog is the change log as the engine kept it while every record
// carried the ops Diff found, the first one too: a write whose component
// Diff finds changed appends its ops, a log past maxLogPerComponent loses
// its oldest record, and a delete that removed something drops the user's
// logs. It is fed each write's component before and after, as the engine's
// GetComponent returns them.
type referenceLog struct {
	logs map[string][]changeRec
}

func (r *referenceLog) put(user string, logPath xpath.Path, oldComp, newComp *xmltree.Node, v uint64) {
	key := compKey(user, logPath)
	ops := xmltree.Diff(oldComp, newComp, xmltree.DefaultKeys)
	if len(ops) > 0 {
		log := append(r.logs[key], changeRec{version: v, ops: ops})
		if len(log) > maxLogPerComponent {
			log = log[len(log)-maxLogPerComponent:]
		}
		r.logs[key] = log
	}
}

func (r *referenceLog) deleted(user string) {
	for k := range r.logs {
		if strings.HasPrefix(k, user+"\x00") {
			delete(r.logs, k)
		}
	}
}

// changesSince is ChangesSince over the reference log; cur is the engine's
// ComponentVersion of the path.
func (r *referenceLog) changesSince(user string, path xpath.Path, since, cur uint64) (ops []xmltree.Op, ok bool) {
	if since == cur {
		return nil, true
	}
	if since > cur || since == 0 {
		return nil, false
	}
	log := r.logs[compKey(user, path)]
	anchorIdx := -1
	for i, rec := range log {
		if rec.version <= since {
			anchorIdx = i
		} else {
			break
		}
	}
	if anchorIdx == -1 {
		return nil, false
	}
	for _, rec := range log[anchorIdx+1:] {
		ops = append(ops, rec.ops...)
	}
	return ops, true
}
