"""Exception types shared across the package."""


class PlannerError(Exception):
    """Base class for all planning and lookup errors."""


class MalformedLine(PlannerError):
    def __init__(self, lineno, reason):
        super().__init__(f"line {lineno}: {reason}")
        self.lineno = lineno
        self.reason = reason


class LengthOutOfRange(PlannerError):
    pass


class DuplicatePrefix(PlannerError):
    pass


class EmptyDatabase(PlannerError):
    pass


class PrefixExceedsCoverage(PlannerError):
    pass


class TagOverflow(PlannerError):
    pass


class CapacityExceeded(PlannerError):
    def __init__(self, message, blocks_short=0, pages_short=0):
        super().__init__(message)
        self.blocks_short = blocks_short
        self.pages_short = pages_short


class StageDepthExceeded(PlannerError):
    pass


class OverflowFull(PlannerError):
    pass


class NotFound(PlannerError):
    pass


class LevelOutOfRange(PlannerError):
    pass
