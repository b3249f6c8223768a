// Fixture: host-environment reads. Nothing under src/ may call getenv
// (this comment's mention must NOT fire); settings come from the
// scenario spec or a CLI flag.
// Expected findings (exact lines are asserted by test_misplint):
//   line 11: det-env  (getenv)
//   line 12: det-env  (getenv, std-qualified)
//   line 13: det-env  (secure_getenv)
bool
debugKnobs()
{
    const char *a = getenv("MISP_DEBUG");
    const char *b = std::getenv("MISP_DEBUG");
    const char *c = secure_getenv("MISP_DEBUG");
    return a || b || c || env.getenv("member call is not a libc read");
}
