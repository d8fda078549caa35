# child processes (`helpers.run_cli_ranks` and the acceptance tests run
# `python -m secmsg.cli`) do not see pytest's in-process `pythonpath`;
# hand them this checkout's src
import os

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))
