"""The one type of input refusal, shared by the library and the command line."""


class UsageError(ValueError):
    """An input the called entry point cannot compute with; the CLI exits 2 on it."""
