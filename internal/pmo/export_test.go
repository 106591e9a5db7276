package pmo

// The reference enumerator, exported to the external test package.
var (
	RefCutMasks       = refCutMasks
	RefAllowedStates  = refAllowedStates
	RefPersistSetKeys = refPersistSetKeys
)
