"""Developer tools for this repository; nothing under ``src/`` imports them."""
