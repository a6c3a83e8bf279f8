import gc

from .cli import main

try:
    main()
finally:
    gc.freeze()  # the process is ending: exit-time collections skip frozen objects
