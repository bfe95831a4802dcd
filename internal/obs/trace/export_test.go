package trace

// MaxBlock is the largest block of a scope's event log, for the
// external allocation guards.
const MaxBlock = maxBlock
