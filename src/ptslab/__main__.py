"""`python -m ptslab ARGS`: the ptslab command."""
import sys
from .cli import main
sys.exit(main())
