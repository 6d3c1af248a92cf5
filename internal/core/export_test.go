package core

// SetLogicalOnly makes every CallerLocationID lookup use the logical
// key (runtime.Callers) instead of the frame-pointer key.
func SetLogicalOnly(on bool) { logicalOnly.Store(on) }

// BugKeyOf returns the key BugLog dedups res under.
func BugKeyOf(res *Result) any { return keyOf(res) }
