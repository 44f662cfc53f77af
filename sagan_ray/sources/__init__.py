from .events import events_to_transcripts, read_events_as_transcripts  # noqa: F401
from .transcripts import read_transcripts  # noqa: F401
