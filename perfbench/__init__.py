"""Wall-clock benchmark of the tile service, end to end and per layer."""
