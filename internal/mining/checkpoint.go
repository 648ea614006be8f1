package mining

// Checkpointer lets a caller carry exact lattice-walk state across
// searches of evolving-but-mostly-identical graph sets (the incremental
// mine/extract loop): the walk reports, per frequent pattern, the visit
// counts of the whole subtree rooted there; a later search may then skip
// a subtree it can prove would behave identically — same visits, no
// side effects the skip would lose — and charge the recorded counts
// instead of re-walking it.
//
// The protocol is strict so the visit sequence stays byte-identical to an
// unassisted search:
//
//   - FastForward is consulted before a frequent pattern would be
//     visited. If the implementation can prove the entire subtree rooted
//     at p behaves exactly as a recorded earlier walk whose visitor calls
//     had no effect the caller still needs, it returns the subtree's
//     visit and non-minimal child counts with ok=true; the search
//     charges those visits against MaxPatterns, adds both counts to its
//     own and skips the subtree without visiting any of it. The
//     non-minimal count covers every viable group of the subtree that
//     failed the minimal-code test (Config.NoteNonMinimal); which
//     groups are viable depends only on ViableCount's answers, so a
//     record need hold no PruneChild comparison for them. remaining
//     is the number of visits left before truncation (-1 = unlimited):
//     implementations MUST return ok=false when their recorded subtree
//     would not fit, because a truncated subtree behaves differently from
//     a replayed one.
//   - Begin marks entry into p's subtree and returns a token, or nil to
//     leave the subtree unrecorded (End is then not called for it).
//   - End closes Begin's record with the subtree's total visit and
//     non-minimal child counts and whether the search was truncated
//     inside it. Truncated records are unusable: the recorded walk did
//     not finish the subtree.
//
// Begin/End calls nest like the recursion itself and happen on the
// walk's goroutine, so implementations need no locking for the record
// stack.
type Checkpointer interface {
	FastForward(p *Pattern, remaining int) (visits, nonMinimal int, ok bool)
	Begin(p *Pattern) any
	End(token any, visits, nonMinimal int, truncated bool)
}

// fastForward asks the checkpointer to skip the subtree rooted at p,
// charging its recorded visit count against the pattern budget and its
// non-minimal children to the walk's count. Reports whether the subtree
// was skipped.
func (mn *miner) fastForward(p *Pattern) bool {
	ck := mn.cfg.Checkpoint
	if ck == nil {
		return false
	}
	remaining := -1
	if mn.cfg.MaxPatterns > 0 {
		remaining = mn.cfg.MaxPatterns - mn.visited
	}
	v, nm, ok := ck.FastForward(p, remaining)
	if !ok {
		return false
	}
	mn.visited += v
	mn.nonMinimal += nm
	if mn.cfg.MaxPatterns > 0 && mn.visited >= mn.cfg.MaxPatterns {
		// The recorded subtree's last visit is exactly where the serial
		// walk would have hit the budget.
		mn.aborted = true
	}
	return true
}
