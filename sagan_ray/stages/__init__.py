from .classify import RuleClassifier, MATCH_SCHEMA  # noqa: F401
